"""Seeded frame generators and the operator identity suite."""

import json
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from framekit import verifier
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
    # at target 1e8 the squared spectrum of S dips under its rounding floor;
    # the two rank routes disagree and the bundle refuses to guess
    frame = generate(spec_for("ill_conditioned", n=6, m=10, seed=77,
                              condition_target=1e8))
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


# -------------------------------------------------------------- sample counts

@pytest.mark.parametrize("entry, name", [
    (lambda frame, count: run_identity_suite(frame, vector_samples=count), "vector_samples"),
    (lambda frame, count: polarization_check(frame, pairs=count), "pairs"),
    (lambda frame, count: bounds_vs_sampling(frame, samples=count), "samples"),
], ids=["run_identity_suite", "polarization_check", "bounds_vs_sampling"])
@pytest.mark.parametrize("count", [-1, 0, 2.5, True, np.float64(3.0), "3"])
def test_sample_counts_follow_one_rule(entry, name, count):
    if count == 0 and name != "samples":  # zero draws nothing, and is valid
        assert entry(generate(spec_for("tight")), count).passed
        return
    # a degenerate frame: the count is refused before a gate could refuse the frame
    zero = FrameSequence.from_vectors([np.zeros(2, dtype=complex)])
    with pytest.raises(ValueError, match=f"^{name} must be"):
        entry(zero, count)


@pytest.mark.parametrize("entry", [
    lambda frame, count: run_identity_suite(frame, vector_samples=count).to_dict(),
    lambda frame, count: polarization_check(frame, pairs=count).to_dict(),
    lambda frame, count: bounds_vs_sampling(frame, samples=count).to_dict(),
], ids=["run_identity_suite", "polarization_check", "bounds_vs_sampling"])
def test_a_numpy_integer_count_gives_the_record_of_a_python_int(entry):
    # the record keeps the count as an int, so it serializes as JSON
    frame = generate(spec_for("tight"))
    assert json.dumps(entry(frame, np.int64(5))) == json.dumps(entry(frame, 5))


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


def test_sampling_gap_fractions_reported():
    frame = generate(spec_for("gaussian", n=2, m=5, seed=11))
    rec = bounds_vs_sampling(frame, samples=5000)
    assert 0.0 <= rec.detail["lower_gap_fraction"]
    assert 0.0 <= rec.detail["upper_gap_fraction"]


# ------------------------------------------------------------- sample streams

SAMPLED_ROWS = ("analysis_sandwich", "synthesis_sandwich", "frame_operator_quadratic_form",
                "gram_quadratic_form", "pinv_energy_identity")


# Counts are multiples of 64, so the shorter run's columns fill whole BLAS
# column panels and its products round as in the longer run.

@pytest.mark.parametrize("seed", range(20))
def test_more_samples_only_widen_the_rayleigh_envelope(seed):
    # the first k vectors of a run of 2k are those of a run of k
    frame = generate(spec_for("gaussian", n=3, m=6, seed=seed))
    for k in (64, 512):
        short, long = (bounds_vs_sampling(frame, samples=c).detail for c in (k, 2 * k))
        assert long["empirical_min"] <= short["empirical_min"]
        assert long["empirical_max"] >= short["empirical_max"]


@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32), (3, 7)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_sampled_suite_rows_do_not_fall_as_samples_grow(kind, n, m):
    tol = Tolerance(identity_abs=1e-6) if kind == "ill_conditioned" else Tolerance()
    for seed in range(3):
        target = 1e4 if kind == "ill_conditioned" else None
        frame = generate(spec_for(kind, n=n, m=m, seed=seed, condition_target=target))
        runs = [{r.name: r.deviation for r in run_identity_suite(frame, tol, count).records}
                for count in (64, 128, 256)]
        for name in SAMPLED_ROWS:
            devs = [run[name] for run in runs]
            assert devs == sorted(devs), (name, seed, devs)


def test_suite_memory_does_not_grow_with_the_sample_count(monkeypatch):
    block = 2**10
    monkeypatch.setattr(verifier, "_SAMPLE_BLOCK", block)
    frame = generate(spec_for("tight", n=4, m=6, seed=0))
    run_identity_suite(frame, vector_samples=20)  # imports and first-call caches
    tracemalloc.start()
    try:
        run_identity_suite(frame, vector_samples=20_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one block is 2^10 complex entries, 16 KiB; the two streams' 20,000
    # samples, held whole, would be (4 + 6) * 20,000 entries, about 200 blocks
    assert peak <= 16 * block * 16


def arrays(derived):
    """The arrays of one block's derived value: one array or a tuple of them."""
    return derived if isinstance(derived, tuple) else (derived,)


def samples_in(derived):
    """The number of samples in one block's derived value."""
    return arrays(derived)[0].shape[-1]


def spy_blocks(monkeypatch, block):
    """Set _SAMPLE_BLOCK and record (samples, entries per sample) of each block read."""
    seen, samples = [], verifier._samples

    def spy(seed, count, dim, largest, derive, vectors=1):
        for derived in samples(seed, count, dim, largest, derive, vectors):
            seen.append((samples_in(derived), largest))
            yield derived

    monkeypatch.setattr(verifier, "_SAMPLE_BLOCK", block)
    monkeypatch.setattr(verifier, "_samples", spy)
    return seen


def assert_records_close(got, ref):
    """Equal records, but for numbers within 1e-12 max(1, |ref|)."""
    def close(x, y):
        if isinstance(y, float):
            return abs(x - y) <= 1e-12 * max(1.0, abs(y))
        return x == y

    assert (got.name, got.formula, got.tolerance, got.passed) == (
        ref.name, ref.formula, ref.tolerance, ref.passed)
    assert close(got.deviation, ref.deviation), (got.name, got.deviation, ref.deviation)
    assert (got.detail or {}).keys() == (ref.detail or {}).keys()
    assert all(close(got.detail[k], v) for k, v in (ref.detail or {}).items()), got.name


# entry, frame and counts; at a _SAMPLE_BLOCK of 42 (168 for polarization's
# four products of m = 6 entries per pair) a block holds 7 samples, so 50,
# 101 and 1000 samples end on a short block
BLOCKED = {
    "run_identity_suite": (lambda frame, count: run_identity_suite(frame, vector_samples=count)
                           .records, ("tight", 4, 6, 2), (0, 50), 42),
    "polarization_check": (lambda frame, count: (polarization_check(frame, pairs=count),),
                           ("tight", 4, 6, 2), (0, 1, 50, 101), 168),
    "bounds_vs_sampling": (lambda frame, count: (bounds_vs_sampling(frame, samples=count),),
                           ("gaussian", 3, 6, 9), (1, 1000), 42),
}


@pytest.mark.parametrize("entry, count", [(entry, count) for entry, (_, _, counts, _)
                                          in BLOCKED.items() for count in counts])
@pytest.mark.parametrize("width", ["one", "short"])
def test_records_do_not_depend_on_the_block_width(monkeypatch, entry, count, width):
    run, (kind, n, m, seed), _, short = BLOCKED[entry]
    frame = generate(spec_for(kind, n=n, m=m, seed=seed))
    default = run(frame, count)
    block = 1 if width == "one" else short
    seen = spy_blocks(monkeypatch, block)
    blocked = run(frame, count)
    assert len(blocked) == len(default)
    for got, ref in zip(blocked, default):
        assert_records_close(got, ref)
    # each block's largest product holds at most _SAMPLE_BLOCK entries, or one
    # sample; only the short width puts several samples in a block
    assert all(k == 1 or k * largest <= block for k, largest in seen)
    assert any(k > 1 for k, _ in seen) == (width == "short" and count > 1)


# the width of the blocks _samples gives each sampled caller, by frame
# size: about 2^12 entries of the largest product, and at least 128 samples
BLOCK_WIDTHS = {  # (n, m): (run_identity_suite, polarization_check, bounds_vs_sampling)
    (4, 6): (682, 170, 682),
    (16, 32): (128, 128, 128),
    (64, 128): (128, 128, 128),
    (256, 512): (128, 128, 128),
}


@pytest.mark.parametrize("n, m", BLOCK_WIDTHS)
def test_each_sampled_caller_gets_the_pinned_block_width(monkeypatch, n, m):
    # gaussian for the suite, which runs polarization's row on tight frames
    frame, tight = (generate(spec_for(kind, n=n, m=m, seed=0)) for kind in ("gaussian", "tight"))
    seen = spy_blocks(monkeypatch, verifier._SAMPLE_BLOCK)
    runs = (lambda count: run_identity_suite(frame, vector_samples=count),
            lambda count: polarization_check(tight, pairs=count),
            lambda count: bounds_vs_sampling(frame, samples=count))
    for run, width in zip(runs, BLOCK_WIDTHS[(n, m)]):
        seen.clear()
        run(width + 1)
        assert {k for k, _ in seen} == {width, 1}


def test_the_memory_ceiling_binds_below_128_samples(monkeypatch):
    # 10,000 entries a sample: 2^20 // 10,000 = 104 samples, not 128
    frame = generate(spec_for("gaussian", n=2, m=10_000, seed=0))
    seen = spy_blocks(monkeypatch, verifier._SAMPLE_BLOCK)
    bounds_vs_sampling(frame, samples=300)
    assert seen == [(104, 10_000), (104, 10_000), (92, 10_000)]


@pytest.mark.parametrize("n, m", [(1, 3), (3, 1), (4, 6), (6, 4), (2, 300), (300, 2), (16, 32)])
def test_the_suite_draws_both_streams_in_blocks_of_one_width(monkeypatch, n, m):
    # the suite zips the signal and coefficient blocks, so a stream cut
    # narrower than the other would drop samples from it without a word
    drawn = {}
    samples = verifier._samples

    def spy(seed, count, dim, largest, derive, vectors=1):
        for derived in samples(seed, count, dim, largest, derive, vectors):
            drawn.setdefault(seed, []).append(samples_in(derived))
            yield derived

    monkeypatch.setattr(verifier, "_samples", spy)
    frame = generate(spec_for("gaussian", n=n, m=m, seed=0))
    for count in (0, 1, 129, 1000):
        drawn.clear()
        run_identity_suite(frame, vector_samples=count)
        signals, coeffs = drawn.get(verifier._SIGNAL_SEED, []), drawn.get(
            verifier._COEFFICIENT_SEED, [])
        assert signals == coeffs and sum(signals) == count


# ------------------------------------------------------------ kept streams

@pytest.fixture
def empty_cache():
    verifier._kept_samples.cache_clear()
    yield verifier._kept_samples
    verifier._kept_samples.cache_clear()


def whole_block(*vectors):
    """The (vectors, dim, k) block of samples as drawn."""
    return np.stack(vectors)


def stream_params(n, m):
    """(seed, count, dim, largest, derive, vectors) of each sampled caller's
    stream on an n x m frame of full rank, with counts small enough to be kept."""
    return [(verifier._SIGNAL_SEED, 50, n, max(n, m), verifier._unit_columns, 1),
            (verifier._COEFFICIENT_SEED, 50, m, max(n, m), verifier._unit_columns, 1),
            (verifier._POLARIZATION_SEED, 50, m, 4 * m, verifier._polarization_probes, 2),
            (verifier._RAYLEIGH_SEED, verifier._KEPT_ENTRIES // n, n, m,
             verifier._with_energies, 1)]


def bits(stream):
    return [[(a.shape, a.dtype, a.tobytes()) for a in arrays(value)] for value in stream]


@pytest.mark.parametrize("n, m", [(4, 6), (16, 32), (64, 128)])
def test_kept_samples_have_the_bits_of_a_fresh_draw(empty_cache, n, m):
    for seed, count, dim, largest, derive, vectors in stream_params(n, m):
        # the caller's derived values, and the raw blocks
        for fn in (derive, whole_block):
            misses = empty_cache.cache_info().misses
            first = list(verifier._samples(seed, count, dim, largest, fn, vectors))
            kept = list(verifier._samples(seed, count, dim, largest, fn, vectors))
            assert empty_cache.cache_info().misses == misses + 1, seed
            assert all(a is b for a, b in zip(first, kept)), seed  # read, not drawn again
            width = samples_in(first[0])
            fresh = [fn(*block) for block in verifier._drawn_blocks(seed, count, dim, width,
                                                                    vectors)]
            assert bits(kept) == bits(fresh), seed
        # the first k samples are those of a count of k
        k = count // 3
        whole, short = (np.concatenate(list(verifier._samples(seed, c, dim, largest, whole_block,
                                                              vectors)), axis=-1)
                        for c in (count, k))
        assert whole[..., :k].tobytes() == short.tobytes(), seed


def test_kept_samples_are_read_only(empty_cache):
    frame = generate(spec_for("gaussian", n=4, m=6, seed=0))
    run_identity_suite(frame)
    bounds_vs_sampling(frame, samples=1000)
    polarization_check(generate(spec_for("tight", n=4, m=6, seed=0)), pairs=50)
    kept = empty_cache.cache_info()
    assert kept.currsize == 4
    for seed, count, dim, largest, derive, vectors in (
            (verifier._SIGNAL_SEED, 50, 4, 6, verifier._unit_columns, 1),
            (verifier._COEFFICIENT_SEED, 50, 6, 6, verifier._unit_columns, 1),
            (verifier._POLARIZATION_SEED, 50, 6, 24, verifier._polarization_probes, 2),
            (verifier._RAYLEIGH_SEED, 1000, 4, 6, verifier._with_energies, 1)):
        for value in verifier._samples(seed, count, dim, largest, derive, vectors):
            for array in arrays(value):
                with pytest.raises(ValueError):
                    array[..., 0] = 0.0
                if array.dtype == np.complex128:
                    with pytest.raises(ValueError):
                        array.real[:] = 0.0
    # each of the four was read from the calls' kept streams
    assert empty_cache.cache_info().misses == kept.misses


def test_a_stream_over_the_limit_is_drawn_on_every_call(empty_cache):
    frame = generate(spec_for("gaussian", n=64, m=128, seed=0))
    bounds_vs_sampling(frame, samples=10)  # the frame's kept factors, imports
    kept = empty_cache.cache_info()
    peaks = []
    tracemalloc.start()
    try:
        for _ in range(2):
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            bounds_vs_sampling(frame, samples=10_000)
            current, peak = tracemalloc.get_traced_memory()
            # 64 x 10,000 complex entries, 10 MiB, would be held if kept
            assert current - before < 2**20
            peaks.append(peak - before)
    finally:
        tracemalloc.stop()
    assert peaks[1] <= peaks[0]
    assert empty_cache.cache_info() == kept  # neither read nor kept


def kept_bytes(stream):
    """The bytes of a kept stream's arrays; polarization's c and d are views
    of one block, whose bytes they sum to."""
    return sum(a.nbytes for value in stream for a in arrays(value))


# _KEPT_STREAMS streams of at most 832 KiB each: polarization's, at m = 1,
# keeps 3 * 2^14 complex entries and 2^13 floats
KEPT_BOUND = 13 * 2**20


def test_the_cache_stays_within_its_bound_over_a_sweep_of_dims(empty_cache):
    held, largest = [], 0
    for dim in range(1, 41):
        # a stream at the per-stream limit for each caller's derived values
        for derive, vectors in ((verifier._unit_columns, 1), (verifier._with_energies, 1),
                                (verifier._polarization_probes, 2)):
            count = verifier._KEPT_ENTRIES // (vectors * dim)
            stream = tuple(verifier._samples(verifier._SIGNAL_SEED, count, dim, dim, derive,
                                             vectors))
            held = (held + [kept_bytes(stream)])[-verifier._KEPT_STREAMS:]
            largest = max(largest, held[-1])
        assert empty_cache.cache_info().currsize == min(3 * dim, verifier._KEPT_STREAMS)
        assert sum(held) <= KEPT_BOUND
    # no stream holds more than its share, and polarization's at dim 1 holds it
    assert largest == KEPT_BOUND // verifier._KEPT_STREAMS
    # the newest stream is kept and the oldest was let go
    info = empty_cache.cache_info()
    list(verifier._samples(verifier._SIGNAL_SEED, verifier._KEPT_ENTRIES // 80, 40, 40,
                           verifier._polarization_probes, 2))
    assert empty_cache.cache_info().misses == info.misses
    list(verifier._samples(verifier._SIGNAL_SEED, verifier._KEPT_ENTRIES, 1, 1,
                           verifier._unit_columns))
    assert empty_cache.cache_info().misses == info.misses + 1


# verify_small's frames (perfbench/workloads.py): the five kinds at 4x6, 8x12
# and 16x32, each run as its suite and a 1000-sample bounds_vs_sampling
VERIFY_SMALL = [(kind, n, m) for n, m in ((4, 6), (8, 12), (16, 32)) for kind in GENERATOR_KINDS]


def test_the_benchmark_streams_stay_kept(empty_cache):
    def run(seed):
        for kind, n, m in VERIFY_SMALL:
            frame = generate(spec_for(kind, n=n, m=m, seed=seed))
            run_identity_suite(frame)
            bounds_vs_sampling(frame, samples=1000)

    # per size: signal, coefficient and polarization streams, and Rayleigh
    # streams of rank n and n - 1; the largest is 16x32's of rank 16, 16,000
    # entries
    run(0)
    first = empty_cache.cache_info()
    assert first.misses == first.currsize == 15
    # a second pass, on fresh frames, draws none of them again
    run(1)
    assert empty_cache.cache_info().misses == first.misses


def test_threads_running_suites_return_the_bits_of_a_sequential_run(empty_cache):
    frames = [generate(spec_for(kind, n=n, m=m, seed=seed))
              for kind, n, m, seed in (("gaussian", 4, 6, 0), ("tight", 4, 6, 1),
                                       ("gaussian", 16, 32, 2), ("rank_deficient", 16, 32, 3))]

    def run(frame):
        report = run_identity_suite(frame)
        return report.to_dict(), bounds_vs_sampling(frame, samples=1000).to_dict()

    sequential = [run(frame) for frame in frames]
    streams = empty_cache.cache_info().currsize
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, inside the cache too
    try:
        for _ in range(3):
            empty_cache.cache_clear()
            barrier, got = threading.Barrier(len(frames)), {}

            def work(i):
                barrier.wait()
                got[i] = run(frames[i])

            threads = [threading.Thread(target=work, args=(i,)) for i in range(len(frames))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert [got[i] for i in range(len(frames))] == sequential
            # a stream two threads drew at once is kept once
            assert empty_cache.cache_info().currsize == streams
    finally:
        sys.setswitchinterval(interval)
