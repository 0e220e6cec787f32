"""Pseudoinverse and SVD plumbing, checked against independent oracles.

The pseudoinverse oracle for full-rank matrices is the normal-equation
formula ((M*M)^-1 M* or M* (MM*)^-1) evaluated with np.linalg.solve, a
route that never touches the SVD code under test. Operator norms are
cross-checked against the largest eigenvalue of M*M via eigvalsh.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import (
    DEFAULT_TOLERANCE,
    Tolerance,
    adjoint,
    as_matrix,
    as_vector,
    max_abs,
    numerical_rank,
    op_norm,
    pinv,
    pinv_from_factors,
    range_projector,
    svd,
)


def complex_gaussian(rng, rows, cols):
    return (rng.standard_normal((rows, cols))
            + 1j * rng.standard_normal((rows, cols))) / np.sqrt(2.0)


def normal_equation_pinv(matrix):
    """Full-rank-only oracle that avoids the SVD entirely."""
    rows, cols = matrix.shape
    mh = matrix.conj().T
    if rows >= cols:
        return np.linalg.solve(mh @ matrix, mh)
    return mh @ np.linalg.inv(matrix @ mh)


# ---------------------------------------------------------------- fixed values

def test_pinv_of_ones_column():
    # (1,1)^T has singular value sqrt(2) and pseudoinverse (1/2, 1/2)
    m = np.array([[1.0], [1.0]], dtype=complex)
    f = svd(m)
    assert f.rank == 1
    assert np.isclose(f.singular_values[0], np.sqrt(2.0))
    assert np.allclose(pinv(m), np.array([[0.5, 0.5]]), atol=1e-14)


def test_op_norm_fixed_matrix():
    m = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]], dtype=complex)
    assert np.isclose(op_norm(m), np.sqrt(3.0), atol=1e-14)


def test_pinv_of_zero_matrix_is_zero_transpose():
    z = np.zeros((3, 5), dtype=complex)
    out = pinv(z)
    assert out.shape == (5, 3)
    assert max_abs(out) == 0.0
    assert numerical_rank(z) == 0


def test_pinv_of_unitary_is_adjoint():
    rng = np.random.default_rng(17)
    q, _ = np.linalg.qr(complex_gaussian(rng, 4, 4))
    assert np.allclose(pinv(q), q.conj().T, atol=1e-13)


def test_range_projector_of_full_rank_square_is_identity():
    rng = np.random.default_rng(3)
    m = complex_gaussian(rng, 5, 5)
    assert np.allclose(range_projector(m), np.eye(5), atol=1e-12)


# ------------------------------------------------------------------- oracles

@pytest.mark.parametrize("rows,cols", [(6, 4), (4, 6), (5, 5), (9, 2)])
def test_pinv_matches_normal_equations_full_rank(rows, cols):
    rng = np.random.default_rng(1000 + rows * 10 + cols)
    for _ in range(25):
        m = complex_gaussian(rng, rows, cols)
        assert np.allclose(pinv(m), normal_equation_pinv(m), atol=1e-9)


@pytest.mark.parametrize("rows,cols", [(7, 4), (4, 7), (6, 6)])
def test_op_norm_matches_eigvalsh(rows, cols):
    rng = np.random.default_rng(2000 + rows * 10 + cols)
    for _ in range(25):
        m = complex_gaussian(rng, rows, cols)
        gram = m.conj().T @ m
        top = np.linalg.eigvalsh(gram)[-1]
        assert np.isclose(op_norm(m), np.sqrt(top), rtol=1e-12, atol=1e-14)


def test_planted_rank_is_recovered():
    rng = np.random.default_rng(55)
    for r in (1, 2, 3, 4):
        left = complex_gaussian(rng, 8, r)
        right = complex_gaussian(rng, r, 6)
        m = left @ right
        assert numerical_rank(m) == r
        f = svd(m)
        assert f.rank == r
        assert f.singular_values.shape == (r,)


# ----------------------------------------------------- Moore-Penrose axioms

def mp_deviations(m, x):
    return (
        max_abs(m @ x @ m - m),
        max_abs(x @ m @ x - x),
        max_abs(adjoint(m @ x) - m @ x),
        max_abs(adjoint(x @ m) - x @ m),
    )


@pytest.mark.parametrize("rows,cols,rank", [
    (5, 5, 5), (8, 3, 3), (3, 8, 3), (7, 6, 4), (6, 7, 2),
])
def test_moore_penrose_axioms(rows, cols, rank):
    rng = np.random.default_rng(31 * rows + cols + rank)
    for _ in range(20):
        if rank == min(rows, cols):
            m = complex_gaussian(rng, rows, cols)
        else:
            m = complex_gaussian(rng, rows, rank) @ complex_gaussian(rng, rank, cols)
        x = pinv(m)
        for dev in mp_deviations(m, x):
            assert dev < 1e-10


def test_pinv_involution():
    rng = np.random.default_rng(71)
    for _ in range(20):
        m = complex_gaussian(rng, 6, 4)
        assert np.allclose(pinv(pinv(m)), m, atol=1e-10)


def test_pinv_commutes_with_adjoint():
    rng = np.random.default_rng(72)
    for _ in range(20):
        m = complex_gaussian(rng, 5, 7)
        assert np.allclose(pinv(adjoint(m)), adjoint(pinv(m)), atol=1e-10)


@settings(max_examples=60, deadline=None)
@given(
    rows=st.integers(min_value=1, max_value=6),
    cols=st.integers(min_value=1, max_value=6),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_moore_penrose_axioms_hypothesis(rows, cols, seed):
    m = complex_gaussian(np.random.default_rng(seed), rows, cols)
    x = pinv(m)
    # normalize by the factor norms so ill-conditioned draws stay honest
    scale = max(1.0, np.linalg.norm(m) * np.linalg.norm(x))
    devs = mp_deviations(m, x)
    assert devs[0] / max(1.0, np.linalg.norm(m)) < 1e-12
    assert devs[1] / max(1.0, np.linalg.norm(x)) < 1e-12
    assert devs[2] / scale < 1e-12
    assert devs[3] / scale < 1e-12


# ------------------------------------------------------------ SVD structure

def test_svd_reconstructs_matrix():
    rng = np.random.default_rng(9)
    for rows, cols in [(5, 8), (8, 5), (6, 6)]:
        m = complex_gaussian(rng, rows, cols)
        f = svd(m)
        rebuilt = f.left_vectors @ (f.singular_values[:, None] * f.right_vectors.conj().T)
        assert np.allclose(rebuilt, m, atol=1e-12)


def test_svd_columns_orthonormal_and_values_sorted():
    rng = np.random.default_rng(10)
    m = complex_gaussian(rng, 7, 4)
    f = svd(m)
    assert np.allclose(f.left_vectors.conj().T @ f.left_vectors, np.eye(f.rank), atol=1e-12)
    assert np.allclose(f.right_vectors.conj().T @ f.right_vectors, np.eye(f.rank), atol=1e-12)
    assert np.all(np.diff(f.singular_values) <= 0)
    assert np.all(f.singular_values > 0)


def test_svd_phase_convention_is_deterministic():
    rng = np.random.default_rng(11)
    m = complex_gaussian(rng, 6, 6)
    f1 = svd(m)
    f2 = svd(np.array(m, copy=True))
    assert np.array_equal(f1.left_vectors, f2.left_vectors)
    assert np.array_equal(f1.singular_values, f2.singular_values)
    assert np.array_equal(f1.right_vectors, f2.right_vectors)


def test_svd_outputs_are_read_only():
    m = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex)
    f = svd(m)
    with pytest.raises(ValueError):
        f.left_vectors[0, 0] = 0
    p = pinv(m)
    with pytest.raises(ValueError):
        p[0, 0] = 0


def test_pinv_from_factors_matches_pinv():
    rng = np.random.default_rng(12)
    m = complex_gaussian(rng, 5, 3)
    assert np.array_equal(pinv_from_factors(svd(m)), pinv(m))


def test_rank_cutoff_respects_rank_rel():
    # singular values 1 and 1e-9 straddle the cutoff when rank_rel moves
    m = np.diag([1.0, 1e-9]).astype(complex)
    assert numerical_rank(m, Tolerance(rank_rel=1e-12)) == 2
    assert numerical_rank(m, Tolerance(rank_rel=1e-6)) == 1


def test_range_projector_properties():
    rng = np.random.default_rng(13)
    m = complex_gaussian(rng, 7, 3)
    p = range_projector(m)
    assert np.allclose(p @ p, p, atol=1e-12)
    assert np.allclose(p, p.conj().T, atol=1e-14)
    assert np.allclose(p @ m, m, atol=1e-12)
    assert np.isclose(np.trace(p).real, 3.0, atol=1e-10)


# --------------------------------------------------------------- validation

def test_as_matrix_rejects_bad_input():
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.inf, 0.0]]))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((2, 2, 2)))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 3)))


def test_as_matrix_result_is_read_only_complex():
    m = as_matrix([[1, 2], [3, 4]])
    assert m.dtype == np.complex128
    with pytest.raises(ValueError):
        m[0, 0] = 5


def test_as_vector_length_check():
    v = as_vector([1, 2, 3], length=3)
    assert v.shape == (3,)
    with pytest.raises(ValueError):
        as_vector([1, 2, 3], length=4)
    with pytest.raises(ValueError):
        as_vector([[1, 2]], length=2)


def test_tolerance_validation():
    with pytest.raises(ValueError):
        Tolerance(rank_rel=0.0)
    with pytest.raises(ValueError):
        Tolerance(rank_rel=1.5)
    with pytest.raises(ValueError):
        Tolerance(identity_abs=-1e-10)
    with pytest.raises(ValueError):
        Tolerance(tightness_rel=0.0)
    assert DEFAULT_TOLERANCE.rank_rel == 1e-12
    assert DEFAULT_TOLERANCE.identity_abs == 1e-10
    assert DEFAULT_TOLERANCE.tightness_rel == 1e-8


@pytest.mark.parametrize("field", ["identity_abs", "tightness_rel"])
@pytest.mark.parametrize("value", [float("inf"), float("nan")])
def test_tolerance_refuses_non_finite_values(field, value):
    # an infinite identity_abs passed every check and a NaN one failed every
    # check; an infinite tightness_rel declared any frame Parseval
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        Tolerance(**{field: value})


def test_op_norm_of_zero_matrix():
    assert op_norm(np.zeros((4, 2), dtype=complex)) == 0.0


def test_max_abs_complex_entries():
    assert max_abs(np.array([1 + 1j, 0.5])) == pytest.approx(np.sqrt(2.0))
