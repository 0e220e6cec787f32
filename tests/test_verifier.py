"""Seeded frame generators and the operator identity suite."""

import numpy as np
import pytest

from framekit import (
    GENERATOR_KINDS,
    CheckRecord,
    DegenerateSpanError,
    FrameSequence,
    GeneratorSpec,
    IdentityReport,
    NotTightError,
    NumericalError,
    Tolerance,
    bounds_vs_sampling,
    classify,
    frame_bounds,
    generate,
    polarization_check,
    registry_formulas,
    run_identity_suite,
)


def spec_for(kind, n=4, m=7, seed=123, condition_target=None):
    if kind == "ill_conditioned" and condition_target is None:
        condition_target = 100.0
    return GeneratorSpec(kind=kind, n=n, m=m, seed=seed,
                         condition_target=condition_target)


# ----------------------------------------------------------------- generators

def test_generator_kinds_are_documented():
    assert GENERATOR_KINDS == (
        "gaussian", "tight", "rank_deficient", "duplicated", "ill_conditioned",
    )


@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_generate_is_deterministic(kind):
    a = generate(spec_for(kind))
    b = generate(spec_for(kind))
    assert a.ambient_dim == b.ambient_dim
    for v, w in zip(a.vectors, b.vectors):
        assert np.array_equal(v, w)


def test_different_seeds_differ():
    a = generate(spec_for("gaussian", seed=1))
    b = generate(spec_for("gaussian", seed=2))
    assert not np.allclose(a.synthesis_matrix(), b.synthesis_matrix())


def test_gaussian_shape():
    frame = generate(spec_for("gaussian", n=5, m=9))
    assert frame.ambient_dim == 5
    assert frame.size == 9
    assert classify(frame).span_dim == 5


def test_tight_generator_is_tight_but_rarely_parseval():
    frame = generate(spec_for("tight", n=3, m=8, seed=5))
    bounds = frame_bounds(frame)
    assert bounds.tight
    assert bounds.upper == pytest.approx(bounds.lower, rel=1e-12)
    # the generator scales away from 1, so tightness is not Parseval here
    assert not bounds.parseval


def test_tight_generator_with_fewer_vectors_than_dimensions():
    frame = generate(spec_for("tight", n=6, m=3, seed=8))
    bounds = frame_bounds(frame)
    assert bounds.tight
    assert classify(frame).span_dim == 3


def test_rank_deficient_plants_rank():
    frame = generate(spec_for("rank_deficient", n=5, m=8))
    assert classify(frame).span_dim == 4  # min(5, 8) - 1


def test_duplicated_repeats_the_first_vector():
    frame = generate(spec_for("duplicated", n=4, m=6))
    assert np.array_equal(frame.vectors[0], frame.vectors[1])
    assert frame.size == 6


def test_ill_conditioned_hits_the_condition_target():
    target = 1e4
    frame = generate(spec_for("ill_conditioned", n=5, m=9,
                              condition_target=target))
    bounds = frame_bounds(frame)
    # singular values of T span the target, so B/A = target^2
    assert bounds.upper / bounds.lower == pytest.approx(target**2, rel=1e-6)


def test_generator_rejects_unbuildable_requests():
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="rank_deficient", n=1, m=1, seed=0))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="duplicated", n=3, m=1, seed=0))
    with pytest.raises(ValueError):
        generate(GeneratorSpec(kind="ill_conditioned", n=1, m=1, seed=0,
                               condition_target=10.0))


def test_spec_validation():
    with pytest.raises(ValueError):
        GeneratorSpec(kind="unknown", n=3, m=3, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="gaussian", n=0, m=3, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="gaussian", n=True, m=3, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="gaussian", n=3, m=3, seed=-1)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="gaussian", n=3, m=3, seed=2**64)
    with pytest.raises(ValueError):
        # condition_target only applies to the ill_conditioned kind
        GeneratorSpec(kind="gaussian", n=3, m=3, seed=0, condition_target=10.0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="ill_conditioned", n=3, m=3, seed=0)
    with pytest.raises(ValueError):
        GeneratorSpec(kind="ill_conditioned", n=3, m=3, seed=0,
                      condition_target=0.5)


# -------------------------------------------------------------- identity suite

@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_suite_passes_on_every_kind(kind):
    report = run_identity_suite(generate(spec_for(kind)))
    assert report.passed
    assert report.failures() == ()


def test_suite_covers_the_registry():
    plain = run_identity_suite(generate(spec_for("gaussian")))
    tight = run_identity_suite(generate(spec_for("tight")))
    assert len(plain.records) == len(registry_formulas(include_tight=False))
    assert len(tight.records) == len(registry_formulas(include_tight=True))
    names = [r.name for r in tight.records]
    assert len(names) == len(set(names))


def test_registry_formulas_mention_the_operator_laws():
    formulas = registry_formulas()
    assert any("T†" in f and "Ũ" in f for f in formulas)
    assert any("SS†" in f.replace(" ", "") or "S S†" in f for f in formulas)


def test_suite_is_deterministic():
    frame = generate(spec_for("gaussian"))
    r1 = run_identity_suite(frame)
    r2 = run_identity_suite(frame)
    assert [c.deviation for c in r1.records] == [c.deviation for c in r2.records]


def test_suite_scaled_tolerance_covers_harsh_conditioning():
    target = 1e6
    tol = Tolerance(rank_rel=1e-15, identity_abs=1e-10 * target)
    frame = generate(spec_for("ill_conditioned", n=6, m=10, seed=77,
                              condition_target=target))
    report = run_identity_suite(frame, tol)
    assert report.passed, [c.name for c in report.failures()]


def test_harsh_conditioning_without_tightened_cutoff_is_caught():
    # at target 1e6 the squared spectrum of S dips under the default rank
    # cutoff; the two rank routes disagree and the bundle refuses to guess
    frame = generate(spec_for("ill_conditioned", n=6, m=10, seed=77,
                              condition_target=1e6))
    with pytest.raises(NumericalError):
        run_identity_suite(frame)


def test_record_serialization():
    rec = CheckRecord(name="demo", formula="X = Y", deviation=1e-12,
                      tolerance=1e-10, passed=True, detail={"samples": 3})
    d = rec.to_dict()
    assert d["name"] == "demo"
    assert d["formula"] == "X = Y"
    assert d["deviation"] == 1e-12
    assert d["tolerance"] == 1e-10
    assert d["passed"] is True
    assert d["detail"] == {"samples": 3}


def test_report_failure_accounting():
    good = CheckRecord("a", "A = A", 0.0, 1e-10, True)
    bad = CheckRecord("b", "B = B", 1.0, 1e-10, False)
    report = IdentityReport(records=(good, bad))
    assert not report.passed
    assert report.failures() == (bad,)
    assert [r["name"] for r in report.to_dict()["checks"]] == ["a", "b"]
    assert report.to_dict()["passed"] is False


# ---------------------------------------------------------------- polarization

def test_polarization_on_tight_frame():
    rec = polarization_check(generate(spec_for("tight", n=3, m=7)), pairs=50)
    assert rec.passed
    assert rec.deviation < 1e-12


def test_polarization_rejects_non_tight_frames():
    with pytest.raises(NotTightError):
        polarization_check(generate(spec_for("gaussian")))


# ------------------------------------------------------------------- sampling

def test_sampling_stays_inside_the_bounds():
    frame = generate(spec_for("gaussian", n=3, m=6, seed=9))
    rec = bounds_vs_sampling(frame, samples=2000)
    assert rec.passed
    bounds = frame_bounds(frame)
    assert rec.detail["empirical_min"] >= bounds.lower - 1e-9
    assert rec.detail["empirical_max"] <= bounds.upper + 1e-9
    assert rec.detail["samples"] == 2000


def test_sampling_on_tight_frame_is_pinned_to_the_bound():
    frame = generate(spec_for("tight", n=4, m=9, seed=10))
    rec = bounds_vs_sampling(frame, samples=500)
    bounds = frame_bounds(frame)
    assert rec.detail["empirical_min"] == pytest.approx(bounds.lower, rel=1e-10)
    assert rec.detail["empirical_max"] == pytest.approx(bounds.upper, rel=1e-10)


def test_sampling_rejects_degenerate_frames():
    zero = FrameSequence.from_vectors([np.zeros(2, dtype=complex)])
    with pytest.raises(DegenerateSpanError):
        bounds_vs_sampling(zero, samples=10)


@pytest.mark.parametrize("block", [1, 42, 2**20])
def test_sampling_draws_and_evaluates_in_column_blocks(monkeypatch, block):
    # a block holds block // max(m, r) columns, at least one: here 1, 7 (with
    # a short last block) and all 1000 at the default, which is one draw
    from framekit import verifier
    from framekit.frame_ops import _FrameAnalysis

    monkeypatch.setattr(verifier, "_SAMPLE_BLOCK", block)
    frame = generate(spec_for("gaussian", n=3, m=6, seed=9))
    rec = bounds_vs_sampling(frame, samples=1000)
    a = _FrameAnalysis(frame)
    on_span = a["U"] @ a.f_t.left_vectors
    width = max(1, block // 6)
    rng = np.random.Generator(np.random.PCG64(verifier._RAYLEIGH_SEED))
    ratios = []
    for start in range(0, 1000, width):
        g = verifier._complex_gaussian(rng, (3, min(width, 1000 - start)))
        g = g / np.linalg.norm(g, axis=0)
        ratios.append(np.linalg.norm(on_span @ g, axis=0) ** 2)
    ratios = np.concatenate(ratios)
    assert rec.detail["empirical_min"] == float(ratios.min())
    assert rec.detail["empirical_max"] == float(ratios.max())
    assert rec.detail["samples"] == 1000 and rec.passed


def test_sampling_gap_fractions_reported():
    frame = generate(spec_for("gaussian", n=2, m=5, seed=11))
    rec = bounds_vs_sampling(frame, samples=5000)
    assert 0.0 <= rec.detail["lower_gap_fraction"]
    assert 0.0 <= rec.detail["upper_gap_fraction"]
