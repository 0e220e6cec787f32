"""Operator bundle, bounds, classification, duals, and restricted operators.

Worked examples with known closed forms anchor every quantity before the
randomized property checks run: the doubled vector {e1, e1}, the redundant
triple {e1, e2, e1+e2}, and the Mercedes-Benz tight frame in R^2.
"""

import re

import numpy as np
import pytest

from framekit import (
    DegenerateSpanError,
    FrameBounds,
    FrameSequence,
    GeneratorSpec,
    MinNormSolution,
    NumericalError,
    Tolerance,
    adjoint,
    build_bundle,
    canonical_dual,
    classify,
    frame_bounds,
    generate,
    pinv,
    pseudo_frame_operator,
    pseudo_gram,
    restricted,
    scaled_deviation,
)

E1 = np.array([1.0, 0.0], dtype=complex)
E2 = np.array([0.0, 1.0], dtype=complex)


def seq(*vectors, ambient_dim=None):
    return FrameSequence.from_vectors([np.asarray(v, dtype=complex) for v in vectors],
                                      ambient_dim=ambient_dim)


def random_frame(rng, n, m):
    vecs = (rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))) / np.sqrt(2)
    return FrameSequence.from_vectors(list(vecs), ambient_dim=n)


# ------------------------------------------------------------ doubled vector

class TestDoubledVector:
    """{e1, e1} in C^2: span is one-dimensional, bounds A = B = 2."""

    frame = seq(E1, E1)

    def test_gram_and_projectors(self):
        b = build_bundle(self.frame)
        assert np.allclose(b.gram, np.ones((2, 2)), atol=1e-14)
        assert np.allclose(b.coefficient_projector, np.full((2, 2), 0.5), atol=1e-12)
        assert np.allclose(b.gram_pinv, np.full((2, 2), 0.25), atol=1e-12)
        assert np.allclose(b.frame_operator, np.diag([2.0, 0.0]), atol=1e-14)
        assert np.allclose(b.frame_operator_pinv, np.diag([0.5, 0.0]), atol=1e-12)
        assert np.allclose(b.span_projector, np.diag([1.0, 0.0]), atol=1e-12)
        assert b.span_dim == 1

    def test_bounds_tight_but_not_parseval(self):
        bounds = frame_bounds(self.frame)
        assert bounds.lower == pytest.approx(2.0, abs=1e-12)
        assert bounds.upper == pytest.approx(2.0, abs=1e-12)
        assert bounds.tight
        assert not bounds.parseval

    def test_canonical_dual_halves_the_vector(self):
        dual = canonical_dual(self.frame)
        assert np.allclose(dual.vectors[0], E1 / 2, atol=1e-12)
        assert np.allclose(dual.vectors[1], E1 / 2, atol=1e-12)

    def test_not_a_frame_for_the_ambient_space(self):
        verdict = classify(self.frame)
        assert not verdict.is_frame_for_space
        assert not verdict.is_riesz_basis
        assert verdict.is_tight
        assert not verdict.is_parseval
        assert verdict.span_dim == 1
        assert verdict.redundancy == pytest.approx(2.0)


# ------------------------------------------------------- redundant spanning

class TestRedundantTriple:
    """{e1, e2, e1+e2}: frame for C^2 with optimal bounds A = 1, B = 3."""

    frame = seq(E1, E2, E1 + E2)

    def test_frame_operator(self):
        b = build_bundle(self.frame)
        assert np.allclose(b.frame_operator, np.array([[2.0, 1.0], [1.0, 2.0]]), atol=1e-14)
        assert np.allclose(b.span_projector, np.eye(2), atol=1e-12)
        assert b.span_dim == 2

    def test_optimal_bounds(self):
        bounds = frame_bounds(self.frame)
        assert bounds.lower == pytest.approx(1.0, rel=1e-12)
        assert bounds.upper == pytest.approx(3.0, rel=1e-12)
        assert not bounds.tight

    def test_dual_vectors(self):
        dual = canonical_dual(self.frame)
        third = np.array([1.0, 1.0]) / 3.0
        assert np.allclose(dual.vectors[0], np.array([2.0, -1.0]) / 3.0, atol=1e-12)
        assert np.allclose(dual.vectors[1], np.array([-1.0, 2.0]) / 3.0, atol=1e-12)
        assert np.allclose(dual.vectors[2], third, atol=1e-12)

    def test_classification(self):
        verdict = classify(self.frame)
        assert verdict.is_frame_for_space
        assert not verdict.is_riesz_basis  # ker T is nontrivial: m > span_dim
        assert not verdict.is_tight
        assert verdict.redundancy == pytest.approx(1.5)


# ----------------------------------------------------------- Mercedes-Benz

class TestMercedesBenz:
    """Three unit vectors at 120 degrees: tight with A = 3/2."""

    frame = seq([0.0, 1.0],
                [np.sqrt(3.0) / 2, -0.5],
                [-np.sqrt(3.0) / 2, -0.5])

    def test_frame_operator_is_multiple_of_identity(self):
        b = build_bundle(self.frame)
        assert np.allclose(b.frame_operator, 1.5 * np.eye(2), atol=1e-12)

    def test_tight_bounds(self):
        bounds = frame_bounds(self.frame)
        assert bounds.tight
        assert bounds.lower == pytest.approx(1.5, rel=1e-12)
        assert not bounds.parseval

    def test_kernel_direction(self):
        # (1,1,1) synthesizes to zero, so Q annihilates it
        b = build_bundle(self.frame)
        ones = np.ones(3, dtype=complex)
        assert np.allclose(b.synthesis @ ones, 0.0, atol=1e-12)
        assert np.allclose(b.coefficient_projector @ ones, 0.0, atol=1e-12)

    def test_scaled_copy_is_parseval(self):
        scaled = seq(*[np.sqrt(2.0 / 3.0) * np.asarray(v) for v in self.frame.vectors])
        bounds = frame_bounds(scaled)
        assert bounds.parseval
        assert bounds.lower == pytest.approx(1.0, rel=1e-10)


# -------------------------------------------------------------- bundle laws

def test_bundle_shapes_and_hermitian_projectors():
    rng = np.random.default_rng(21)
    frame = random_frame(rng, 4, 7)
    b = build_bundle(frame)
    assert b.synthesis.shape == (4, 7)
    assert b.analysis.shape == (7, 4)
    assert b.frame_operator.shape == (4, 4)
    assert b.gram.shape == (7, 7)
    assert b.synthesis_pinv.shape == (7, 4)
    assert np.array_equal(b.analysis, adjoint(b.synthesis))
    for p in (b.span_projector, b.coefficient_projector):
        assert np.allclose(p, adjoint(p), atol=1e-14)
        assert np.allclose(p @ p, p, atol=1e-12)


def test_bundle_internal_identities():
    rng = np.random.default_rng(22)
    for n, m in [(3, 5), (5, 3), (4, 4)]:
        b = build_bundle(random_frame(rng, n, m))
        assert np.allclose(b.frame_operator, b.synthesis @ b.analysis, atol=1e-12)
        assert np.allclose(b.gram, b.analysis @ b.synthesis, atol=1e-12)
        assert np.allclose(b.frame_operator @ b.frame_operator_pinv,
                           b.span_projector, atol=1e-10)
        assert np.allclose(b.gram_pinv @ b.gram, b.coefficient_projector, atol=1e-10)


def test_bundle_arrays_are_read_only():
    b = build_bundle(seq(E1, E2))
    with pytest.raises(ValueError):
        b.synthesis[0, 0] = 9


def test_rank_route_disagreement_raises():
    # sigma(T) = {1, 1e-8} keeps T at rank 2, but sigma(S) = {1, 1e-16} falls
    # under S's rounding floor 10 * 2 * eps, so the routes disagree
    frame = seq([1.0, 0.0], [0.0, 1e-8])
    with pytest.raises(NumericalError):
        build_bundle(frame)
    # a rank_rel that drops sigma_2 from T brings the routes to rank 1; the
    # dropped sigma_2 stays in P T - T, so identity_abs must admit it
    b = build_bundle(frame, Tolerance(rank_rel=1e-8, identity_abs=1e-7))
    assert b.span_dim == 1


def test_degenerate_frame_bounds_raise():
    zero = seq([0.0, 0.0], [0.0, 0.0])
    with pytest.raises(DegenerateSpanError):
        frame_bounds(zero)
    with pytest.raises(DegenerateSpanError):
        canonical_dual(zero)


def test_degenerate_classification():
    verdict = classify(seq([0.0, 0.0]))
    assert verdict.is_degenerate
    assert verdict.span_dim == 0
    assert not verdict.is_frame_for_space
    assert not verdict.is_riesz_basis
    assert verdict.redundancy == np.inf


def test_orthonormal_basis_is_parseval_riesz():
    verdict = classify(seq(E1, E2))
    assert verdict.is_frame_for_space
    assert verdict.is_riesz_basis
    assert verdict.is_tight
    assert verdict.is_parseval
    assert verdict.redundancy == pytest.approx(1.0)


def test_riesz_but_not_frame_for_space():
    # two orthonormal vectors inside C^3 span a proper subspace
    frame = seq([1, 0, 0], [0, 1, 0])
    verdict = classify(frame)
    assert verdict.is_riesz_basis
    assert not verdict.is_frame_for_space
    assert verdict.span_dim == 2


# ------------------------------------------------------------- dual frames

def test_dual_of_dual_returns_original():
    rng = np.random.default_rng(23)
    for n, m in [(3, 6), (4, 4), (5, 8)]:
        frame = random_frame(rng, n, m)
        again = canonical_dual(canonical_dual(frame))
        for v, w in zip(frame.vectors, again.vectors):
            assert np.allclose(v, w, atol=1e-10)


@pytest.mark.parametrize("kappa", [1e4, 1e6])
@pytest.mark.parametrize("n, m", [(16, 32), (32, 16), (64, 128)])
@pytest.mark.parametrize("seed", range(3))
def test_the_dual_is_accurate_to_kappa_of_t(kappa, n, m, seed):
    # S+ T, whose error grows like eps kappa(T)^2, put dual(dual(F)) up to
    # 4.4e-9 (kappa 1e4) and 3.4e-5 (1e6) of max|T| from T, and the dual up
    # to 3.0e-9 and 2.6e-5 of max|pinv(T)| from pinv(T)*; W Sigma^-1 V*, read
    # off T's certified factors, stays at rounding level
    frame = generate(GeneratorSpec("ill_conditioned", n, m, seed, condition_target=kappa))
    t = frame.synthesis_matrix()
    dual = canonical_dual(frame)
    assert np.abs(canonical_dual(dual).synthesis_matrix() - t).max() <= 1e-12 * np.abs(t).max()
    reference = np.linalg.pinv(t).conj().T
    assert np.abs(dual.synthesis_matrix() - reference).max() <= 1e-13 * np.abs(reference).max()


def test_dual_bounds_are_reciprocal():
    rng = np.random.default_rng(24)
    frame = random_frame(rng, 4, 7)
    bounds = frame_bounds(frame)
    dual_bounds = frame_bounds(canonical_dual(frame))
    assert dual_bounds.lower == pytest.approx(1.0 / bounds.upper, rel=1e-10)
    assert dual_bounds.upper == pytest.approx(1.0 / bounds.lower, rel=1e-10)


def test_dual_reproduces_projection():
    rng = np.random.default_rng(25)
    frame = random_frame(rng, 3, 5)
    b = build_bundle(frame)
    dual = canonical_dual(frame)
    dual_synthesis = dual.synthesis_matrix()
    assert np.allclose(b.synthesis @ adjoint(dual_synthesis), b.span_projector, atol=1e-10)
    assert np.allclose(dual_synthesis @ b.analysis, b.span_projector, atol=1e-10)


# ------------------------------------------------------ restricted operators

def test_restricted_eigen_extremes_match_bounds():
    rng = np.random.default_rng(26)
    for n, m in [(4, 9), (6, 4), (5, 5)]:
        frame = random_frame(rng, n, m)
        bounds = frame_bounds(frame)
        res = restricted(frame)
        eigs = np.linalg.eigvalsh(res.frame_operator_res)
        assert eigs[0] == pytest.approx(bounds.lower, rel=1e-10)
        assert eigs[-1] == pytest.approx(bounds.upper, rel=1e-10)


def test_restricted_basis_is_orthonormal():
    rng = np.random.default_rng(27)
    frame = random_frame(rng, 5, 3)
    res = restricted(frame)
    r = res.basis.shape[1]
    assert np.allclose(adjoint(res.basis) @ res.basis, np.eye(r), atol=1e-12)
    assert np.allclose(res.frame_operator_res,
                       res.synthesis_res @ res.analysis_res, atol=1e-12)
    assert np.allclose(res.frame_operator_res @ res.frame_operator_res_inv,
                       np.eye(r), atol=1e-10)


@pytest.mark.parametrize("kappa, bound", [(1e4, 1e-12), (1e6, 1e-10)])
@pytest.mark.parametrize("n, m", [(16, 32), (32, 16), (64, 128)])
@pytest.mark.parametrize("seed", range(3))
def test_restricted_eigenvalues_are_the_planted_squares(kappa, bound, n, m, seed):
    # diag(sigma^2) and diag(sigma^-2), read off T's certified factors, are
    # at most 3.4e-13 (kappa 1e4) and 3.3e-11 (1e6) from each planted value,
    # relatively; W*SW formed as (W*T)(W*T)* and inverted by LU was up to
    # 1.2e-9 and 7.6e-6 from it
    frame = generate(GeneratorSpec("ill_conditioned", n, m, seed, condition_target=kappa))
    squares = np.sort(np.geomspace(1.0, 1.0 / kappa, min(n, m)) ** 2)
    res = restricted(frame)
    for operator, planted in [(res.frame_operator_res, squares),
                              (res.frame_operator_res_inv, np.sort(1.0 / squares))]:
        eigenvalues = np.linalg.eigvalsh(operator)
        assert np.max(np.abs(eigenvalues - planted) / planted) <= bound


@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient", "duplicated"])
@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32)])
def test_restricted_operators_follow_the_frame_scale_exactly(kind, n, m):
    # T's SVD scales with T by a power of two, so W does not move, W*T and
    # its adjoint scale by 2^k, W*SW by 2^2k and its inverse by 2^-2k
    for seed in range(3):
        t = generate(GeneratorSpec(kind, n, m, seed)).synthesis_matrix()
        base = restricted(FrameSequence.from_vectors(list(t.T)))
        for k in (-300, -100, 100, 300):
            res = restricted(FrameSequence.from_vectors(list((t * 2.0**k).T)))
            assert np.array_equal(res.basis, base.basis)
            assert np.array_equal(res.synthesis_res, base.synthesis_res * 2.0**k)
            assert np.array_equal(res.analysis_res, base.analysis_res * 2.0**k)
            assert np.array_equal(res.frame_operator_res, base.frame_operator_res * 2.0**(2 * k))
            assert np.array_equal(res.frame_operator_res_inv,
                                  base.frame_operator_res_inv * 2.0**(-2 * k))


# ------------------------------------------------------ pseudo operator pair

def test_pseudo_operators_match_pinv_route():
    rng = np.random.default_rng(28)
    frame = random_frame(rng, 4, 6)
    t = frame.synthesis_matrix()
    assert np.allclose(pseudo_frame_operator(frame), pinv(t @ adjoint(t)), atol=1e-12)
    assert np.allclose(pseudo_gram(frame), pinv(adjoint(t) @ t), atol=1e-12)


def test_pseudo_operators_of_a_tight_frame():
    # for a tight frame the closed forms P/A and Q/A agree with what the
    # S and G routes return
    frame = seq([0.0, 1.0],
                [np.sqrt(3.0) / 2, -0.5],
                [-np.sqrt(3.0) / 2, -0.5])
    b = build_bundle(frame)
    assert np.allclose(pseudo_frame_operator(frame), b.span_projector / 1.5, atol=1e-12)
    assert np.allclose(pseudo_gram(frame), b.coefficient_projector / 1.5, atol=1e-12)
    t = frame.synthesis_matrix()
    assert np.allclose(pseudo_frame_operator(frame), pinv(t @ adjoint(t)), atol=1e-12)
    assert np.allclose(pseudo_gram(frame), pinv(adjoint(t) @ t), atol=1e-12)


def test_pseudo_operators_degenerate_are_zero():
    zero = seq([0.0, 0.0], [0.0, 0.0])
    assert np.allclose(pseudo_frame_operator(zero), np.zeros((2, 2)))
    assert np.allclose(pseudo_gram(zero), np.zeros((2, 2)))


# ------------------------------------------------------------ construction

def test_sequence_validation():
    with pytest.raises(ValueError):
        FrameSequence.from_vectors([])
    with pytest.raises(ValueError):
        seq([1.0, 0.0], [1.0, 0.0, 0.0])  # mismatched lengths
    with pytest.raises(ValueError):
        FrameSequence(ambient_dim=0, vectors=(E1,))
    with pytest.raises(ValueError):
        FrameSequence(ambient_dim=True, vectors=(np.array([1.0 + 0j]),))
    with pytest.raises(ValueError):
        seq([np.nan, 0.0])


def test_public_constructors_refuse_what_they_cannot_hold():
    with pytest.raises(ValueError, match="^a frame sequence needs at least one vector$"):
        FrameSequence(ambient_dim=2, vectors=())
    with pytest.raises(ValueError, match="^bounds must satisfy 0 < lower <= upper$"):
        FrameBounds(lower=2.0, upper=1.0, tight=False, parseval=False)
    with pytest.raises(ValueError, match="^seed must be an integer$"):
        GeneratorSpec("gaussian", 4, 6, 1.5)
    with pytest.raises(ValueError, match="^norm_split components must be nonnegative$"):
        MinNormSolution(solution=np.zeros(2), residual_norm=0.0, norm_split=(1.0, -1.0))


def test_restricted_refuses_a_degenerate_frame():
    with pytest.raises(DegenerateSpanError,
                       match="^a degenerate sequence has no restriction to its span$"):
        restricted(seq([0.0, 0.0], [0.0, 0.0]))


def test_sequence_vectors_are_read_only():
    frame = seq(E1, E2)
    with pytest.raises(ValueError):
        frame.vectors[0][0] = 7
    # synthesis_matrix hands out a fresh writable copy every call
    t = frame.synthesis_matrix()
    t[0, 0] = 7
    assert frame.vectors[0][0] == 1.0


def test_truncated_prefix_echoes_tail_energy():
    frame, tail = FrameSequence.truncated([E1, E2], tail_energy=0.25)
    assert frame.size == 2
    assert tail == 0.25
    with pytest.raises(ValueError):
        FrameSequence.truncated([E1], tail_energy=-1.0)
    with pytest.raises(ValueError):
        FrameSequence.truncated([E1], tail_energy=np.inf)


def test_scaled_deviation_floor_and_factors():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    b = np.array([[1.0, 1e-8], [0.0, 1.0]])
    assert scaled_deviation(a, b) == pytest.approx(1e-8)
    # a factor of norm 100 divides the raw deviation
    big = np.full((2, 2), 50.0)
    assert scaled_deviation(a, b, (big,)) == pytest.approx(1e-8 / 100.0)
    # factors with norm below one never inflate the deviation
    tiny = np.full((2, 2), 1e-6)
    assert scaled_deviation(a, b, (tiny,)) == pytest.approx(1e-8)


@pytest.mark.parametrize("lhs, rhs, shapes", [([1, 2], [[1, 2], [1, 2]], "(2,) and (2, 2)"),
                                               ([[1], [2]], [[1, 2]], "(2, 1) and (1, 2)")])
def test_scaled_deviation_refuses_operands_of_different_shapes(lhs, rhs, shapes):
    # broadcast, the first pair read 0.0 and the second 1.0
    with pytest.raises(ValueError, match=re.escape(shapes)):
        scaled_deviation(lhs, rhs)
