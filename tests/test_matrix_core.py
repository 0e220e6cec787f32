"""Pseudoinverse and SVD plumbing, checked against independent oracles.

The pseudoinverse oracle for full-rank matrices is the normal-equation
formula ((M*M)^-1 M* or M* (MM*)^-1) evaluated with np.linalg.solve, a
route that never touches the SVD code under test. Operator norms are
cross-checked against the largest eigenvalue of M*M via eigvalsh.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from framekit import (
    DEFAULT_TOLERANCE,
    FrameSequence,
    GeneratorSpec,
    Tolerance,
    adjoint,
    as_matrix,
    as_vector,
    frame_bounds,
    generate,
    max_abs,
    numerical_rank,
    op_norm,
    pinv,
    range_projector,
    svd,
)
from framekit.frame_ops import _FrameAnalysis
from framekit.matrix_core import _norm, _norms, _pinv_from_factors


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
    assert np.array_equal(_pinv_from_factors(svd(m), "T+"), pinv(m))


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
    z = np.array([1 + 2j, 3.0])  # already complex128: as_vector still copies it
    v = as_vector(z)
    assert not np.shares_memory(v, z) and not v.flags.writeable and z.flags.writeable
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


@pytest.mark.parametrize("make, field", [
    (lambda: Tolerance(identity_abs=True), "identity_abs"),
    (lambda: Tolerance(tightness_rel=True), "tightness_rel"),
    (lambda: FrameSequence.truncated([[1, 0]], tail_energy=True), "tail_energy"),
    (lambda: GeneratorSpec("ill_conditioned", 4, 6, 0, condition_target=True), "condition_target"),
    (lambda: Tolerance(rank_rel="1e-12"), "rank_rel"),
    (lambda: Tolerance(identity_abs=None), "identity_abs"),
    (lambda: Tolerance(tightness_rel=1e-8 + 0j), "tightness_rel"),
    (lambda: GeneratorSpec("ill_conditioned", 4, 6, 0, condition_target=10**400),
     "condition_target"),
    (lambda: GeneratorSpec("ill_conditioned", 4, 6, 0, condition_target="5"), "condition_target"),
    (lambda: GeneratorSpec("ill_conditioned", 4, 6, 0, condition_target=2j), "condition_target"),
    (lambda: Tolerance(tightness_rel=np.float32(np.nan)), "tightness_rel must be finite"),
    (lambda: GeneratorSpec("ill_conditioned", 4, 6, 0, condition_target=np.float32(np.inf)),
     "condition_target must be finite"),
], ids=["identity_abs", "tightness_rel", "tail_energy", "condition_target", "rank_rel-str",
        "identity_abs-None", "tightness_rel-complex", "condition_target-huge-int",
        "condition_target-str", "condition_target-complex", "tightness_rel-float32-nan",
        "condition_target-float32-inf"])
def test_a_bool_is_not_a_number(make, field):
    # True would otherwise read as 1.0; a str, None, a complex and an int
    # past the double range raised a bare TypeError. A float32 inf or NaN
    # was compared with the largest double, cast to float32, which warned
    # and let an infinite condition target through
    with pytest.raises(ValueError, match=field):
        make()


@pytest.mark.parametrize("make, expected", [
    (lambda: Tolerance(identity_abs=np.float32(1e-10)).identity_abs, float(np.float32(1e-10))),
    (lambda: Tolerance(tightness_rel=np.float32(1e-8)).tightness_rel, float(np.float32(1e-8))),
    (lambda: GeneratorSpec("ill_conditioned", 4, 6, 0,
                           condition_target=np.float32(1e4)).condition_target, 1e4),
    (lambda: FrameSequence.truncated([[1, 0]], tail_energy=np.float32(0.5))[1], 0.5),
    (lambda: FrameSequence.truncated([[1, 0]], tail_energy=np.int64(1))[1], 1.0),
], ids=["identity_abs", "tightness_rel", "condition_target", "tail_energy-float32",
        "tail_energy-int64"])
def test_a_numpy_scalar_is_kept_as_its_python_float(make, expected):
    # one check reads every real scalar from outside, through float(), which
    # never warns; a numpy scalar was refused, or warned under -W error
    value = make()
    assert type(value) is float and value == expected


def test_float32_tolerances_give_python_bool_verdicts():
    tol = Tolerance(identity_abs=np.float32(1e-10), tightness_rel=np.float32(1e-8))
    bounds = frame_bounds(generate(GeneratorSpec("tight", 4, 6, 0)), tol)
    assert type(bounds.tight) is bool and type(bounds.parseval) is bool
    assert bounds.tight


@pytest.mark.parametrize("exponent", [-1000, -700, -520, -500, -40, 0, 40, 500, 511, 520, 1000])
def test_norm_follows_power_of_two_scaling_across_the_double_range(exponent):
    x = np.array([[3 + 4j, 1e-3], [12.0, -2j]])
    scaled = x * 2.0**exponent
    assert _norm(scaled) == pytest.approx(np.ldexp(np.linalg.norm(x), exponent), rel=1e-15)
    assert _norm(scaled, 2.0**-exponent) == pytest.approx(np.linalg.norm(x), rel=1e-15)
    if abs(exponent) <= 500:  # where no square leaves the range, np.linalg.norm's bits
        assert _norm(scaled) == np.linalg.norm(scaled)


def test_norm_beyond_the_double_range_is_inf():
    huge = np.full(4, 1e308)
    assert _norm(huge) == np.inf  # no warning, and no OverflowError
    assert _norm(huge, 1e-10) == pytest.approx(2e298, rel=1e-15)
    assert _norm(np.zeros((2, 3))) == 0.0
    assert np.isnan(_norm(np.array([1.0, np.nan])))
    # |1.5e308 (1 + i)| overflows, its parts do not
    assert _norm(np.array([1.5e308 + 1.5e308j]), 0.5) == pytest.approx(1.5e308 / np.sqrt(2.0))
    assert _norm(np.array([3e-320, 4e-320])) == 5e-320  # subnormal entries only


def test_norms_take_the_bits_of_np_linalg_norm():
    # _norms takes each norm as the two BLAS dots np.linalg.norm runs, on the
    # entries in memory order; strided views, such as the rank-cut factors a
    # reconstruction reads, must keep its bits too
    rng = np.random.default_rng(11)
    z = complex_gaussian(rng, 6, 9)
    f_t = _FrameAnalysis(generate(GeneratorSpec("rank_deficient", 6, 9, 1))).f_t
    w, v = f_t.left_vectors, f_t.right_vectors
    assert 0 < f_t.rank < 6 and not w.flags.contiguous and not v.flags.contiguous
    arrays = [z, z[0], z[:, 0], z.T, z[::2, 1::3], z.real, z.real.T[1], w, v, w[:, 0], v[1],
              z.astype(np.complex64), z.real.astype(np.float32), np.arange(-3, 5),
              np.eye(2, dtype=bool), np.array([1.0, np.inf]), np.array([np.inf, np.nan]),
              np.array([1j, np.nan]), np.array([3, 4j, 12], dtype=object)]
    # both sides of each edge of [2^-400, 2^400], where the plain norm is
    # returned inside and the scaled route takes it outside
    unit = z[1] / np.linalg.norm(z[1])  # every entry's square stays normal at 2^-401
    for edge in (-400, 400):
        arrays += [np.array([2.0**edge]), np.array([np.nextafter(2.0**edge, 0.0)]),
                   np.array([np.nextafter(2.0**edge, np.inf)])]
        arrays += [unit * 2.0**edge * (1 - 2.0**-40), unit * 2.0**edge * (1 + 2.0**-40)]
    sides = set()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in arrays:
            if x.dtype == object:  # _norm reads Python numbers as complex128
                expected = float(np.linalg.norm(x.astype(complex))).hex()
            else:
                expected = float(np.linalg.norm(x)).hex()
                assert [n.hex() for n in _norms((x, 1.0), (x, 1.0))] == [expected] * 2, x
            assert _norm(x).hex() == expected, x
            sides.add(2.0**-400 <= float.fromhex(expected) <= 2.0**400)
    assert sides == {True, False}


def scaled_norm(x, factor=1.0):
    """_norm's scaled route alone: |x| taken on x scaled by 2^-e below 1 in
    modulus, factor applied before 2^e is undone."""
    parts = np.ascontiguousarray(x).view(np.float64) if np.iscomplexobj(x) else x
    scale = float(np.abs(parts).max(initial=0.0))
    if not scale < math.inf:
        return factor * scale
    exponent = max(math.frexp(scale)[1] + 1, -1022)
    try:
        return math.ldexp(factor * float(np.linalg.norm(x * 2.0**-exponent)), exponent)
    except OverflowError:
        return math.inf


def norm_cases(rng):
    """Real and complex vectors whose entries' exponents spread over 2^-1074 to
    2^1023: clustered about every center, scattered over the whole range, and
    subnormal entries mixed with entries about the center; some hold an inf or
    a NaN."""
    for center in range(-1074, 1024, 6):
        for complex_entries in (False, True):
            size = int(rng.choice([1, 2, 3, 7, 64, 300]))
            spread = [rng.integers(center - 30, center + 4, size),
                      rng.integers(-1074, 1024, size),
                      np.where(rng.random(size) < 0.5, rng.integers(-1074, -1020, size), center)]
            for exponents in spread:
                exponents = np.clip(exponents, -1074, 1023)
                x = np.ldexp(rng.uniform(0.5, 1.0, size) * rng.choice([-1, 1], size), exponents)
                if complex_entries:
                    y = np.ldexp(rng.uniform(0.5, 1.0, size) * rng.choice([-1, 1], size),
                                 np.clip(exponents - rng.integers(0, 40, size), -1074, 1023))
                    x = x + 1j * y
                yield x
    for bad in (np.inf, -np.inf, np.nan):
        yield np.array([1.0, bad, 3.0])
        yield np.array([2.0**-1074, 1.0 + 1j * bad])


def test_norm_one_pass_keeps_the_bits_of_the_scaled_route():
    rng = np.random.default_rng(7)
    one_pass = 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in norm_cases(rng):
            factors = (1e-300, 1.0, 1e300)
            # the batched form takes |x| once for all three factors, with their bits
            batched = _norms((x, *factors), (x[::-1], 1.0))
            for factor, together in zip(factors, batched):
                got, expected = _norm(x, factor), scaled_norm(x, factor)
                assert got.hex() == expected.hex() == together.hex(), (x, factor)
            assert batched[-1].hex() == _norm(x[::-1]).hex()
            with np.errstate(over="ignore", under="ignore"):
                plain = float(np.linalg.norm(x))
            one_pass += 2.0**-400 <= plain <= 2.0**400
    assert one_pass > 500  # the cases reach the one-pass route, not only the scaled one


def test_op_norm_of_zero_matrix():
    assert op_norm(np.zeros((4, 2), dtype=complex)) == 0.0


def test_max_abs_complex_entries():
    assert max_abs(np.array([1 + 1j, 0.5])) == pytest.approx(np.sqrt(2.0))
