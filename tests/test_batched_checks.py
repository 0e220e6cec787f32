"""Vectorized evaluations against their one-column / one-sample definitions.

Each reference below is the loop the vectorized code replaced, kept here as
the definition it must reproduce.
"""

from types import SimpleNamespace

import numpy as np
import pytest

from framekit import (GENERATOR_KINDS, GeneratorSpec, Tolerance, bounds_vs_sampling, generate,
                      op_norm, run_identity_suite, svd)
from framekit.frame_ops import _FrameAnalysis
from framekit.verifier import (
    _COEFFICIENT_SEED,
    _POLARIZATION_SEED,
    _RAYLEIGH_SEED,
    _SIGNAL_SEED,
    _complex_gaussian,
    _polarization_deviation,
    _samples,
)


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


SAMPLED = [
    ("analysis_sandwich", ref_analysis_sandwich),
    ("synthesis_sandwich", ref_synthesis_sandwich),
    ("frame_operator_quadratic_form", ref_frame_operator_quadratic),
    ("gram_quadratic_form", ref_gram_quadratic),
    ("pinv_energy_identity", ref_pinv_energy),
]


def unit_samples(seed, dim, count):
    """count unit vectors from the stream of seed, drawn one vector at a time, as columns."""
    rng = np.random.Generator(np.random.PCG64(seed))
    columns = [_complex_gaussian(rng, dim) for _ in range(count)]
    columns = [v / np.linalg.norm(v) for v in columns]
    return np.stack(columns, axis=1) if columns else np.zeros((dim, 0), dtype=complex)


def whole_block(*vectors):
    """The (vectors, dim, k) block of samples as drawn."""
    return np.stack(vectors)


@pytest.mark.parametrize("vectors", [1, 2])
@pytest.mark.parametrize("largest", [1, 5, 2**20])
def test_sample_blocks_hold_the_one_vector_draws(monkeypatch, vectors, largest):
    # at a _SAMPLE_BLOCK of 10 a block holds 10, 2 (with a short last block)
    # or 1 sample; every sample keeps the bits of one-vector draws
    from framekit import verifier

    monkeypatch.setattr(verifier, "_SAMPLE_BLOCK", 10 if largest < 2**20 else 1)
    rng = np.random.Generator(np.random.PCG64(7))
    expected = [[_complex_gaussian(rng, 3) for _ in range(vectors)] for _ in range(11)]
    samples = [list(block[:, :, j]) for block in _samples(7, 11, 3, largest, whole_block, vectors)
               for j in range(block.shape[-1])]
    assert np.array(samples).tobytes() == np.array(expected).tobytes()


def context_for(kind, n, m, seed, samples=50):
    if kind == "ill_conditioned":
        spec = GeneratorSpec(kind, n, m, seed, condition_target=1e4)
        tol = Tolerance(identity_abs=1e-6)
    else:
        spec = GeneratorSpec(kind, n, m, seed)
        tol = Tolerance()
    analysis = _FrameAnalysis(generate(spec), tol)
    return SimpleNamespace(analysis=analysis, tol=tol,
                           signals=unit_samples(_SIGNAL_SEED, n, samples),
                           coeffs=unit_samples(_COEFFICIENT_SEED, m, samples))


def sampled_records(ctx, samples):
    report = run_identity_suite(ctx.analysis.frame, ctx.tol, vector_samples=samples)
    return {r.name: r for r in report.records}


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("n, m", [(4, 6), (16, 32), (6, 4)])
def test_batched_sampled_checks_match_per_sample_loops(kind, n, m):
    for seed in range(3):
        ctx = context_for(kind, n, m, seed)
        records = sampled_records(ctx, 50)
        for name, reference in SAMPLED:
            expected = reference(ctx)
            # deviations are already relative to max(1, bound), so the
            # 1e-12 relative tolerance is taken against max(1, |expected|)
            assert abs(records[name].deviation - expected) <= 1e-12 * max(1.0, abs(expected)), name
            assert records[name].detail == {"samples": 50}


def ref_rayleigh_envelope(analysis, samples):
    """Smallest and largest |T* f|^2 / |f|^2 over f = W g in the span, W T's kept
    left singular vectors and each g drawn one vector at a time."""
    on_span = analysis["U"] @ analysis.f_t.left_vectors
    rng = np.random.Generator(np.random.PCG64(_RAYLEIGH_SEED))
    ratios = []
    for _ in range(samples):
        g = _complex_gaussian(rng, analysis.f_t.rank)
        ratios.append(float(np.linalg.norm(on_span @ g) ** 2 / np.linalg.norm(g) ** 2))
    return min(ratios), max(ratios)


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_sampled_checks_over_several_blocks_match_per_sample_loops(kind):
    # 300 samples at 16 x 32 run in three blocks of 128, 128 and 44
    for seed in range(3):
        ctx = context_for(kind, 16, 32, seed, samples=300)
        records = sampled_records(ctx, 300)
        for name, reference in SAMPLED:
            expected = reference(ctx)
            assert abs(records[name].deviation - expected) <= 1e-12 * max(1.0, abs(expected)), name
        detail = bounds_vs_sampling(ctx.analysis.frame, 300, ctx.tol).detail
        for got, expected in zip((detail["empirical_min"], detail["empirical_max"]),
                                 ref_rayleigh_envelope(ctx.analysis, 300)):
            assert abs(got - expected) <= 1e-12 * max(1.0, abs(expected))


def test_batched_sampled_checks_handle_no_samples():
    ctx = context_for("gaussian", 4, 6, 0, samples=0)
    records = sampled_records(ctx, 0)
    for name, reference in SAMPLED:
        assert records[name].deviation == reference(ctx) == 0.0


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
def test_batched_polarization_matches_the_per_pair_loop(n, m, pairs):
    for seed in range(3):
        ctx = context_for("tight", n, m, seed)
        a = ctx.analysis.bounds.lower
        batched = _polarization_deviation(ctx.analysis, a, pairs)
        expected = ref_polarization_deviation(ctx.analysis.bundle, a, pairs)
        assert abs(batched - expected) <= 1e-12 * max(1.0, abs(expected))
