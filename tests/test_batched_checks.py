"""Vectorized evaluations against their one-column / one-sample definitions.

Each reference below is the loop the vectorized code replaced, kept here as
the definition it must reproduce.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from framekit import GENERATOR_KINDS, GeneratorSpec, Tolerance, generate, svd
from framekit.frame_ops import _FrameAnalysis
from framekit.verifier import (
    _POLARIZATION_SEED,
    _REGISTRY,
    _complex_gaussian,
    _polarization_deviation,
    _suite_samples,
)
from framekit.matrix_core import op_norm


# ------------------------------------------------------------ phase convention

def reference_phases(matrix, rank):
    """The per-column phase convention: largest-modulus entry of v real positive."""
    u, _, vh = np.linalg.svd(matrix, full_matrices=False)
    u = u[:, :rank].copy()
    v = vh[:rank].conj().T.copy()
    for j in range(rank):
        pivot = int(np.argmax(np.abs(v[:, j])))
        z = v[pivot, j]
        phase = np.conj(z) / abs(z)
        v[:, j] *= phase
        u[:, j] *= phase
    return u, v


def phase_cases():
    rng = np.random.default_rng(20)
    for _ in range(200):
        n, m = (int(k) for k in rng.integers(1, 12, size=2))
        a = (rng.standard_normal((n, m)) + 1j * rng.standard_normal((n, m)))
        yield a * 10.0 ** rng.uniform(-3, 3)
    for kind in GENERATOR_KINDS:
        for seed in range(20):
            ct = 1e4 if kind == "ill_conditioned" else None
            yield generate(GeneratorSpec(kind, 8, 12, seed, condition_target=ct)).synthesis_matrix()
    # a repeated vector gives right singular vectors whose largest moduli
    # nearly tie, where a differently rounded modulus would move the pivot
    for seed in range(50):
        t = generate(GeneratorSpec("duplicated", 2, 3, seed)).synthesis_matrix()
        yield t
        yield t.conj().T @ t
    yield np.zeros((3, 4), dtype=complex)
    yield np.zeros((1, 1), dtype=complex)


def test_vectorized_phase_convention_is_bitwise_the_per_column_one():
    tol = Tolerance(rank_rel=1e-10)
    for matrix in phase_cases():
        factors = svd(matrix, tol)
        u, v = reference_phases(matrix, factors.rank)
        assert factors.left_vectors.tobytes() == u.tobytes()
        assert factors.right_vectors.tobytes() == v.tobytes()


def test_rank_zero_factors_are_empty():
    factors = svd(np.zeros((3, 4)))
    assert factors.rank == 0
    assert factors.left_vectors.shape == (3, 0)
    assert factors.singular_values.shape == (0,)
    assert factors.right_vectors.shape == (4, 0)


# ------------------------------------------------------------- sampled checks

def ref_analysis_sandwich(ctx):
    b = ctx.analysis.bundle
    lo, hi = ctx.analysis.bounds.lower, ctx.analysis.bounds.upper
    worst = 0.0
    for f in ctx.signals.T:
        pf2 = float(np.linalg.norm(b.span_projector @ f) ** 2)
        uf2 = float(np.linalg.norm(b.analysis @ f) ** 2)
        worst = max(worst, lo * pf2 - uf2, uf2 - hi * pf2)
    return worst / max(1.0, hi)


def ref_synthesis_sandwich(ctx):
    b = ctx.analysis.bundle
    lo, hi = ctx.analysis.bounds.lower, ctx.analysis.bounds.upper
    worst = 0.0
    for c in ctx.coeffs.T:
        qc2 = float(np.linalg.norm(b.coefficient_projector @ c) ** 2)
        tc2 = float(np.linalg.norm(b.synthesis @ c) ** 2)
        worst = max(worst, lo * qc2 - tc2, tc2 - hi * qc2)
    return worst / max(1.0, hi)


def ref_frame_operator_quadratic(ctx):
    b = ctx.analysis.bundle
    upper = op_norm(b.frame_operator)
    inv_lower = op_norm(b.frame_operator_pinv)
    worst = 0.0
    for f in ctx.signals.T:
        pf2 = float(np.linalg.norm(b.span_projector @ f) ** 2)
        quad = float(np.vdot(f, b.frame_operator @ f).real)
        worst = max(worst, pf2 / inv_lower - quad, quad - upper * pf2)
    return worst / max(1.0, upper)


def ref_gram_quadratic(ctx):
    b = ctx.analysis.bundle
    upper = op_norm(b.frame_operator)
    inv_lower = op_norm(b.frame_operator_pinv)
    worst = 0.0
    for c in ctx.coeffs.T:
        qc2 = float(np.linalg.norm(b.coefficient_projector @ c) ** 2)
        quad = float(np.vdot(c, b.gram @ c).real)
        worst = max(worst, qc2 / inv_lower - quad, quad - upper * qc2)
    return worst / max(1.0, upper)


def ref_pinv_energy(ctx):
    b = ctx.analysis.bundle
    worst = 0.0
    for f in ctx.signals.T:
        lhs = float(np.linalg.norm(b.synthesis_pinv @ f) ** 2)
        rhs = float(np.vdot(f, b.frame_operator_pinv @ f).real)
        ref = max(abs(lhs), abs(rhs))
        if ref > 0.0:
            worst = max(worst, abs(lhs - rhs) / ref)
    return worst


ROWS = {name: check for name, _, _, check in _REGISTRY}
SAMPLED = [
    ("analysis_sandwich", ref_analysis_sandwich),
    ("synthesis_sandwich", ref_synthesis_sandwich),
    ("frame_operator_quadratic_form", ref_frame_operator_quadratic),
    ("gram_quadratic_form", ref_gram_quadratic),
    ("pinv_energy_identity", ref_pinv_energy),
]


def context_for(kind, n, m, seed, samples=50):
    if kind == "ill_conditioned":
        spec = GeneratorSpec(kind, n, m, seed, condition_target=1e4)
        tol = Tolerance(identity_abs=1e-6)
    else:
        spec = GeneratorSpec(kind, n, m, seed)
        tol = Tolerance()
    analysis = _FrameAnalysis(generate(spec), tol)
    blocks = _suite_samples(analysis.frame, samples)
    return SimpleNamespace(analysis=analysis, samples=blocks, **blocks)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n, m", [(4, 6), (16, 32), (6, 4)])
def test_batched_sampled_checks_match_per_sample_loops(kind, n, m):
    for seed in range(3):
        ctx = context_for(kind, n, m, seed)
        for name, reference in SAMPLED:
            dev, _, detail = ROWS[name](ctx.analysis, ctx.samples)
            expected = reference(ctx)
            # deviations are already relative to max(1, bound), so the
            # 1e-12 relative tolerance is taken against max(1, |expected|)
            assert abs(dev - expected) <= 1e-12 * max(1.0, abs(expected)), name
            assert detail == {"samples": 50}


def test_batched_sampled_checks_handle_no_samples():
    ctx = context_for("gaussian", 4, 6, 0, samples=0)
    for name, reference in SAMPLED:
        assert ROWS[name](ctx.analysis, ctx.samples)[0] == reference(ctx) == 0.0


# --------------------------------------------------------------- polarization

def ref_polarization_deviation(bundle, common_bound, pairs):
    rng = np.random.Generator(np.random.PCG64(_POLARIZATION_SEED))
    q = bundle.coefficient_projector
    g = bundle.gram
    m = bundle.size
    worst = 0.0
    for _ in range(pairs):
        c = _complex_gaussian(rng, m)
        d = _complex_gaussian(rng, m)

        def qnorm2(x):
            return float(np.linalg.norm(q @ x) ** 2)

        combo = (common_bound / 4.0) * (
            qnorm2(c + d) - qnorm2(c - d)
            + 1j * qnorm2(c + 1j * d) - 1j * qnorm2(c - 1j * d)
        )
        direct_gram = np.vdot(d, g @ c)
        direct_q = common_bound * np.vdot(d, q @ c)
        scale = max(1.0, common_bound * float(np.linalg.norm(c)) * float(np.linalg.norm(d)))
        worst = max(worst,
                    abs(combo - direct_gram) / scale,
                    abs(combo - direct_q) / scale)
    return worst


@pytest.mark.parametrize("n, m", [(4, 6), (3, 7), (8, 12), (16, 32), (6, 4), (1, 5), (5, 1)])
@pytest.mark.parametrize("pairs", [-1, 0, 1, 50, 100])
def test_batched_polarization_is_bitwise_the_per_pair_loop(n, m, pairs):
    for seed in range(3):
        ctx = context_for("tight", n, m, seed)
        a = ctx.analysis.bounds.lower
        batched = _polarization_deviation(ctx.analysis, a, pairs)
        assert batched == ref_polarization_deviation(ctx.analysis.bundle, a, pairs)
