"""A frame factors T once, and every later call on it reads those factors.

FrameSequence keeps T's untruncated SVD, and each call truncates it under
its own tolerance. S and G are still factored in every call that reads
them, so each result stays cross-checked against a factorization made in
that call. The memo must be invisible: a call on a frame that already holds
it returns, or raises, exactly what the same call on a fresh frame does.
"""

import dataclasses
import sys
import threading

import numpy as np
import pytest

from framekit import (
    FramekitError,
    FrameSequence,
    GeneratorSpec,
    Tolerance,
    bounds_vs_sampling,
    build_bundle,
    canonical_dual,
    classify,
    frame_bounds,
    generate,
    min_norm_coefficients,
    min_norm_preimage,
    project_coefficients,
    project_signal,
    pseudo_frame_operator,
    pseudo_gram,
    run_identity_suite,
    svd,
)
from framekit import frame_ops
from framekit.frame_ops import _FrameAnalysis

GAUSSIAN = GeneratorSpec("gaussian", 4, 6, 3)
ILL = GeneratorSpec("ill_conditioned", 4, 6, 3, condition_target=1e8)


@pytest.fixture
def svd_calls(monkeypatch):
    """count(fn, *args) runs fn and returns how often it called np.linalg.svd."""
    calls = []
    original = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)

    def count(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return len(calls)

    return count


def test_later_calls_on_a_frame_factor_only_s_and_g(svd_calls):
    frame = generate(GAUSSIAN)
    signal = frame.synthesis_matrix()[:, 0]
    assert svd_calls(frame_bounds, frame) == 1  # T, kept on the frame
    assert svd_calls(classify, frame) == 0
    assert svd_calls(canonical_dual, frame) == 1  # S
    assert svd_calls(min_norm_coefficients, frame, signal) == 1  # S
    assert svd_calls(project_coefficients, frame, np.ones(frame.size)) == 1  # S, as n <= m
    assert svd_calls(build_bundle, frame) == 2  # S and G


def test_suite_leaves_t_factored_for_later_calls(svd_calls):
    frame = generate(GAUSSIAN)
    # T, S, G of the frame, and S, G of its dual, a fresh frame built by the
    # call and handed T's factors
    assert svd_calls(run_identity_suite, frame) == 5
    assert svd_calls(bounds_vs_sampling, frame, 100) == 0
    assert svd_calls(classify, frame) == 0


def test_the_duals_analysis_runs_no_svd_of_the_dual(monkeypatch):
    frame = generate(GAUSSIAN)
    dual = canonical_dual(frame)
    factored = []
    original = np.linalg.svd

    def recording(a, *args, **kwargs):
        factored.append(np.array(a))
        return original(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", recording)
    # the dual holds T's kept factors, reversed, with sigma -> 1/sigma
    f_t = _FrameAnalysis(frame).f_t
    assert np.array_equal(dual._svd.singular_values, 1.0 / f_t.singular_values[::-1])
    assert np.array_equal(dual._svd.right_vectors, f_t.right_vectors[:, ::-1])
    analysis = _FrameAnalysis(dual)
    analysis.gate("synthesis", "frame operator", "gram"), analysis.bounds
    analysis.canonical_dual
    # S and G's core of the dual, and never the dual's own matrix
    assert len(factored) == 2
    assert not any(np.array_equal(a, dual._matrix) for a in factored)


def test_a_second_t_s_call_forms_neither_s_nor_u(monkeypatch):
    frame = generate(GAUSSIAN)
    formed = []
    in_range, adjoint = frame_ops._in_range, frame_ops.adjoint

    def forming_in_range(name, form):
        formed.append(name)
        return in_range(name, form)

    def forming_adjoint(matrix):
        formed.append("U")
        return adjoint(matrix)

    monkeypatch.setattr(frame_ops, "_in_range", forming_in_range)
    monkeypatch.setattr(frame_ops, "adjoint", forming_adjoint)
    signal, coefficients = np.arange(1.0, 5.0), np.ones(6)
    min_norm_coefficients(frame, signal)
    # S, formed once through a transient U, is kept read-only on the frame
    assert formed == ["frame operator S", "U"]
    assert not frame._frame_operator.flags.writeable
    for call in (lambda: min_norm_coefficients(frame, signal),
                 lambda: min_norm_preimage(frame, coefficients),
                 lambda: project_signal(frame, signal),
                 lambda: canonical_dual(frame),
                 lambda: pseudo_frame_operator(frame)):
        formed.clear()
        call()
        assert formed == []


def _bits(value):
    """Everything a result holds, in a form that compares equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, FrameSequence):
        return _bits(value.synthesis_matrix())
    if hasattr(value, "to_dict"):
        return repr(value.to_dict())
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return repr(value)  # a float's repr round-trips exactly


CALLS = {
    "frame_bounds": frame_bounds,
    "classify": classify,
    "canonical_dual": canonical_dual,
    "build_bundle": build_bundle,
    "pseudo_gram": pseudo_gram,
    "min_norm_coefficients": lambda f, tol: min_norm_coefficients(f, np.arange(1.0, 5.0), tol),
    "project_signal": lambda f, tol: project_signal(f, np.arange(1.0, 5.0), tol),
    "project_coefficients": lambda f, tol: project_coefficients(f, np.ones(6), tol),
    "run_identity_suite": run_identity_suite,
    "bounds_vs_sampling": lambda f, tol: bounds_vs_sampling(f, 200, tol),
}


def _outcome(call, frame, tol):
    try:
        return "returned", _bits(call(frame, tol))
    except FramekitError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("spec", [GAUSSIAN, ILL], ids=["gaussian", "ill_conditioned_1e8"])
def test_each_tolerance_truncates_the_kept_factors_afresh(spec):
    # rank_rel 1e-8 drops sigma_4 = 1e-8 of the ill-conditioned frame, which
    # the other two tolerances keep, so the kept factors are cut differently
    tols = [Tolerance(), Tolerance(rank_rel=1e-16), Tolerance(rank_rel=1e-8), Tolerance()]
    shared = generate(spec)
    for tol in tols:
        for name, call in CALLS.items():
            fresh = _outcome(call, generate(spec), tol)
            assert _outcome(call, shared, tol) == fresh, (name, tol)
    if spec is ILL:
        assert (_outcome(frame_bounds, shared, tols[0])
                != _outcome(frame_bounds, shared, tols[2]))


@pytest.mark.parametrize("spec", [GAUSSIAN, ILL], ids=["gaussian", "ill_conditioned_1e8"])
@pytest.mark.parametrize("tol", [Tolerance(), Tolerance(rank_rel=1e-8)])
def test_kept_factors_are_read_only_and_truncate_to_svd(spec, tol):
    frame = generate(spec)
    f_t = _FrameAnalysis(frame, tol).f_t
    for arr in (frame._svd.left_vectors, frame._svd.singular_values, frame._svd.right_vectors):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0.0
    reference = svd(frame.synthesis_matrix(), tol)
    assert f_t.rank == reference.rank
    for name in ("left_vectors", "singular_values", "right_vectors"):
        assert _bits(getattr(f_t, name)) == _bits(getattr(reference, name))


def test_threads_sharing_a_fresh_frame_get_equal_bounds():
    # more threads than cores and a short switch interval, so the first
    # calls overlap while the frame's factors are being computed
    expected = frame_bounds(generate(GeneratorSpec("gaussian", 16, 32, 5)))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            frame = generate(GeneratorSpec("gaussian", 16, 32, 5))
            barrier = threading.Barrier(4)
            results = []

            def work():
                barrier.wait(timeout=10)
                results.append(frame_bounds(frame))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [expected] * 4
    finally:
        sys.setswitchinterval(interval)
