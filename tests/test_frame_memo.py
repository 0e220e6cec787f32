"""A frame factors T, S and G once, and every later call on it reads those factors.

FrameSequence keeps the untruncated SVDs of T and S and G's lifted factors,
and one rank cut of each, by the rank_rel that made it, which a call at that
rank_rel reads and a call at another replaces. It keeps the gate's
self-check deviations too, by check and by the ranks the routes keep, and
every call holds them against its own tolerance: a verdict is never kept.
It keeps one canonical dual, by T's kept rank, which each call returns once
its own certificate and gate hold. All of it sits in one dict, read and
filled by FrameSequence._keep with no lock, so calls on different frames
never wait on each other. The memo must be invisible: a call on a frame
that already holds it returns, or raises, exactly what the same call on a
fresh frame does.
"""

import dataclasses
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from framekit import (
    GENERATOR_KINDS,
    FramekitError,
    FrameSequence,
    NumericalError,
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
    restricted,
    run_identity_suite,
    svd,
)
from framekit import frame_ops
from framekit.frame_ops import _FrameAnalysis
from framekit.matrix_core import SvdFactors

GAUSSIAN = GeneratorSpec("gaussian", 4, 6, 3)
TALL = GeneratorSpec("gaussian", 6, 4, 3)
ILL = GeneratorSpec("ill_conditioned", 4, 6, 3, condition_target=1e8)
# 'T+ = T* S+' reads 9.8e-14 on this frame, and T's certificate at most 7.8e-16
ILL_1E4 = GeneratorSpec("ill_conditioned", 4, 6, 3, condition_target=1e4)
ILL_1E4_16X32 = GeneratorSpec("ill_conditioned", 16, 32, 0, condition_target=1e4)


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


def test_later_calls_on_a_frame_run_no_svd(svd_calls):
    frame = generate(GAUSSIAN)
    signal = frame.synthesis_matrix()[:, 0]
    assert svd_calls(frame_bounds, frame) == 1  # T, kept on the frame
    assert svd_calls(classify, frame) == 0
    assert svd_calls(canonical_dual, frame) == 1  # S, kept on the frame
    assert svd_calls(canonical_dual, frame) == 0
    assert svd_calls(min_norm_coefficients, frame, signal) == 0
    assert svd_calls(project_coefficients, frame, np.ones(frame.size)) == 0  # S, as n <= m
    assert svd_calls(build_bundle, frame) == 1  # G's core, kept on the frame
    assert svd_calls(build_bundle, frame) == 0
    assert svd_calls(pseudo_gram, frame) == 0


@pytest.fixture
def self_checks(monkeypatch):
    """count(fn, *args) runs fn and returns the names of the gate's self-checks
    it evaluated, each entry of _SELF_CHECKS wrapped in place."""
    evaluated = []

    def counted(name, check):
        def evaluate(a):
            evaluated.append(name)
            return check(a)
        return evaluate

    for name, (route, check) in list(frame_ops._SELF_CHECKS.items()):
        monkeypatch.setitem(frame_ops._SELF_CHECKS, name, (route, counted(name, check)))

    def count(fn, *args, **kwargs):
        evaluated.clear()
        fn(*args, **kwargs)
        return list(evaluated)

    return count


T_S = ["S S+ = P", "S+ S = P", "T+ = T* S+"]
T_G = ["G G+ = Q", "G+ G = Q", "T+ = G+ T*"]


@pytest.mark.parametrize("spec, call, checks", [
    (GAUSSIAN, lambda f, tol: min_norm_coefficients(f, np.arange(1.0, 5.0), tol), T_S),
    (GAUSSIAN, lambda f, tol: min_norm_preimage(f, np.ones(6), tol), T_S),
    (GAUSSIAN, lambda f, tol: project_signal(f, np.arange(1.0, 5.0), tol), T_S),
    (GAUSSIAN, lambda f, tol: project_coefficients(f, np.ones(6), tol), T_S),
    (TALL, lambda f, tol: project_coefficients(f, np.ones(4), tol), T_G),
    (TALL, lambda f, tol: min_norm_coefficients(f, np.arange(1.0, 7.0), tol), T_G),
    (TALL, lambda f, tol: min_norm_preimage(f, np.ones(4), tol), T_G),
    (TALL, lambda f, tol: project_signal(f, np.arange(1.0, 7.0), tol), T_G),
    (GAUSSIAN, canonical_dual, T_S),
    (TALL, canonical_dual, T_G),
    (GAUSSIAN, pseudo_frame_operator, T_S),
    (GAUSSIAN, pseudo_gram, T_G),
    (GAUSSIAN, build_bundle, T_S[:2] + T_G[:2] + T_S[2:] + T_G[2:]),
], ids=["min_norm_coefficients", "min_norm_preimage", "project_signal",
        "project_coefficients", "project_coefficients_tall", "min_norm_coefficients_tall",
        "min_norm_preimage_tall", "project_signal_tall", "canonical_dual", "canonical_dual_tall",
        "pseudo_frame_operator", "pseudo_gram", "build_bundle"])
def test_a_repeat_gated_call_evaluates_no_self_check(self_checks, spec, call, checks):
    frame = generate(spec)
    assert self_checks(call, frame, None) == checks
    assert self_checks(call, frame, None) == []
    # the kept deviations serve every tolerance under which the routes keep
    # the same ranks, each call holding them against its own identity_abs
    assert self_checks(call, frame, Tolerance(rank_rel=1e-14, identity_abs=1e-9)) == []


def test_a_tolerance_that_cuts_s_to_a_new_rank_evaluates_the_checks_again(self_checks):
    frame = generate(ILL_1E4)
    signal = np.arange(1.0, 5.0)
    cut = Tolerance(rank_rel=1e-3)  # keeps 2 of the 4 singular values
    assert _FrameAnalysis(frame, cut).f_s.rank == 2
    assert self_checks(min_norm_coefficients, frame, signal) == T_S
    assert self_checks(min_norm_coefficients, frame, signal, cut) == T_S
    loose = Tolerance(identity_abs=1e-9)
    for tol in (None, cut, loose, dataclasses.replace(cut, identity_abs=1e-9)):
        assert self_checks(min_norm_coefficients, frame, signal, tol) == []
    assert sorted(slot for slot in frame._kept
                  if isinstance(slot, tuple) and slot[0] in frame_ops._SELF_CHECKS) == sorted(
        (name, r) for name in T_S for r in (2, 4))
    # and one T/S gate summary, by the rank_rel of the last call that walked the checks
    assert frame._kept["synthesis", "frame operator"][0] == cut.rank_rel


def test_suite_leaves_t_factored_for_later_calls(svd_calls):
    frame = generate(GAUSSIAN)
    # T, S, G of the frame; its dual, a frame built by the first call and
    # kept, is handed the frame's factors of T, S and G
    assert svd_calls(run_identity_suite, frame) == 3
    assert svd_calls(bounds_vs_sampling, frame, 100) == 0
    assert svd_calls(classify, frame) == 0


def test_a_second_suite_on_a_frame_factors_nothing(monkeypatch):
    # the frame's factors of T, S and G, one QR for G's core; the dual is
    # handed them, and the second suite factors neither the frame nor its dual
    calls = []

    def counted(name):
        original = getattr(np.linalg, name)

        def call(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, call)

    counted("svd"), counted("qr")
    frame = generate(GAUSSIAN)
    run_identity_suite(frame)
    assert sorted(calls) == ["qr"] * 1 + ["svd"] * 3
    calls.clear()
    run_identity_suite(frame)
    assert calls == []


def test_equal_rank_calls_return_the_kept_dual():
    frame = generate(GAUSSIAN)
    dual = canonical_dual(frame)
    assert canonical_dual(frame) is dual
    # other rank_rel and identity_abs, the same kept rank
    assert canonical_dual(frame, Tolerance(rank_rel=1e-14, identity_abs=1e-9)) is dual
    assert frame._kept["dual"] == (4, dual)


def test_a_tolerance_that_keeps_another_rank_replaces_the_kept_dual():
    frame = generate(ILL_1E4)
    cut = Tolerance(rank_rel=1e-3)  # keeps 2 of the 4 singular values
    first = canonical_dual(frame)
    cut_dual = canonical_dual(frame, cut)
    assert cut_dual is not first and frame._kept["dual"] == (2, cut_dual)
    assert _bits(cut_dual) == _bits(canonical_dual(generate(ILL_1E4), cut))
    # back at the default rank, the dual is formed afresh, with the first's bits
    back = canonical_dual(frame)
    assert back is not first and frame._kept["dual"] == (4, back)
    assert _bits(back) == _bits(first) == _bits(canonical_dual(generate(ILL_1E4)))
    assert canonical_dual(frame) is back


def test_a_kept_dual_is_refused_where_the_calls_gate_fails():
    # identity_abs 1e-14 fails 'T+ = T* S+' (9.8e-14): the kept dual is
    # refused on every such call, and kept for the next call that passes
    frame = generate(ILL_1E4)
    dual = canonical_dual(frame)
    for _ in range(2):
        with pytest.raises(NumericalError, match="self-check 'T\\+ = T\\* S\\+'"):
            canonical_dual(frame, Tolerance(identity_abs=1e-14))
    assert canonical_dual(frame) is dual


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
    # the public canonical_dual gates T and S only, so the frame's G is first
    # factored when the dual reads G: one SVD of the frame's G core, and never
    # of the dual's S, G or matrix
    assert len(factored) == 1
    q1, r1 = np.linalg.qr(frame.synthesis_matrix().conj().T)
    assert np.array_equal(factored[0], (r1 @ r1.conj().T + (r1 @ r1.conj().T).conj().T) / 2)


@pytest.mark.parametrize("spec", [GAUSSIAN, TALL, GeneratorSpec("rank_deficient", 16, 32, 5),
                                  GeneratorSpec("rank_deficient", 32, 16, 5)],
                         ids=["4x6", "6x4", "rank_deficient_16x32", "rank_deficient_32x16"])
@pytest.mark.parametrize("g_first", [False, True], ids=["dual_first", "frame_g_first"])
def test_the_duals_s_and_g_factors_are_the_frames_inverted(spec, g_first):
    # S~ = S+ = R_s lambda^-1 L_s* and G~ = G+, so the dual's factors are the
    # frame's at T's kept rank r, sides swapped, reversed, lambda -> 1/lambda,
    # bit for bit, whether the frame had factored G before the dual or not
    frame = generate(spec)
    if g_first:
        build_bundle(frame)
    dual = canonical_dual(frame)
    r = _FrameAnalysis(frame).f_t.rank
    analysis = _FrameAnalysis(dual)
    analysis.gate("synthesis", "frame operator", "gram")
    for own, dual_factors in ((frame._s_svd, dual._s_svd),
                              (frame._g_svd(lambda: frame.synthesis_matrix().conj().T),
                               dual._g_svd(None))):
        assert dual_factors.rank == r
        assert np.array_equal(dual_factors.singular_values, 1.0 / own.singular_values[r - 1::-1])
        assert np.array_equal(dual_factors.left_vectors, own.right_vectors[:, r - 1::-1])
        assert np.array_equal(dual_factors.right_vectors, own.left_vectors[:, r - 1::-1])
    assert analysis.f_s.rank == analysis.f_g.rank == r


def _lambda_off(monkeypatch, slot):
    """Every canonical dual formed from here on is handed the frame's factors
    of slot with every eigenvalue 1% off."""
    original = frame_ops._dual_factors

    def handed(frame, f_t):
        forms = original(frame, f_t)
        exact = forms[slot]

        def off():
            factors = exact()
            return dataclasses.replace(factors, singular_values=factors.singular_values * 1.01)

        forms[slot] = off
        return forms

    monkeypatch.setattr(frame_ops, "_dual_factors", handed)


# a check scaled by kappa(X) = lambda_1 / lambda_r sees a relative error e in
# lambda where e exceeds identity_abs kappa(X). At condition target 1e2,
# kappa(S) = 1e4, so 1% shows in 'S S+ = P' on every kind. At 1e4, kappa(G) =
# 1e8 hides it from 'G G+ = Q', and G's T+ tie, scaled by sigma_1 / lambda_r,
# reads it as e / kappa(T) = 1e-6
@pytest.mark.parametrize("slot, target, checks", [("S factors", 1e2, "S S\\+ = P"),
                                                  ("G factors", 1e4, "G G\\+ = Q")],
                         ids=["S", "G"])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
@pytest.mark.parametrize("shape", [(4, 6), (6, 4)], ids=["4x6", "6x4"])
def test_handed_off_s_or_g_factors_are_refused_by_the_duals_gate(monkeypatch, slot, target,
                                                                 checks, kind, shape):
    _lambda_off(monkeypatch, slot)
    if kind == "ill_conditioned" and slot == "G factors":
        checks = "T\\+ = G\\+ T\\*"
    frame = generate(GeneratorSpec(kind, *shape, 0,
                                   condition_target=target if kind == "ill_conditioned" else None))
    build_bundle(frame)  # the frame's own gate holds on all three routes
    messages = []
    for _ in range(2):
        with pytest.raises(NumericalError, match=f"self-check '{checks}'") as info:
            run_identity_suite(frame)
        messages.append(str(info.value))
    assert messages[0] == messages[1]


@pytest.mark.parametrize("spec", [TALL, GeneratorSpec("rank_deficient", 32, 16, 5),
                                  GeneratorSpec("duplicated", 12, 8, 1)],
                         ids=["6x4", "rank_deficient_32x16", "duplicated_12x8"])
def test_a_tall_frames_dual_has_the_same_bits_whether_or_not_s_was_factored_first(spec):
    # a tall frame's canonical_dual gates T and G, its smaller square, so the
    # frame may not have factored S when its dual is formed; the dual then
    # forms S's factors from T on its first read of S, as the frame would
    def results(s_first):
        frame = generate(spec)
        if s_first:
            pseudo_frame_operator(frame)
        dual = canonical_dual(frame)
        assert ("S factors" in frame._kept) == s_first
        return _bits(build_bundle(dual)), _bits(run_identity_suite(frame))

    assert results(False) == results(True)


@pytest.mark.parametrize("g_first", [False, True], ids=["dual_first", "frame_g_first"])
def test_a_kept_dual_does_not_keep_its_frames_factors_alive(g_first):
    # the dual's factors are formed from the frame's T, S and G factors (or,
    # where the frame has not factored G, from T) on their first read, and
    # from then on it holds its own copies only
    frame = generate(GeneratorSpec("gaussian", 128, 256, 0))
    if g_first:
        build_bundle(frame)
    dual = canonical_dual(frame)
    held = [weakref.ref(x) for x in (frame._svd.left_vectors, frame._s_svd.left_vectors,
                                     frame._matrix)]
    if g_first:
        held.append(weakref.ref(frame._kept["G factors"][1].left_vectors))
    run_identity_suite(dual)
    del frame
    gc.collect()
    assert [ref() for ref in held] == [None] * len(held)
    assert dual._handed == {}
    assert dual._kept["T factors"][1] is dual._svd
    assert dual._kept["S factors"][1] is dual._s_svd
    assert dual._kept["G factors"][1] is dual._g_svd(None)


def test_threads_sharing_a_fresh_dual_read_equal_factors():
    # the first reads of a fresh dual's factors overlap, with no lock: each
    # thread reads the factors formed from T's, never an SVD of the dual's own
    # matrix
    spec = GeneratorSpec("gaussian", 16, 32, 5)
    expected = _bits(canonical_dual(generate(spec))._svd)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            dual = canonical_dual(generate(spec))
            assert "T factors" not in dual._kept
            barrier = threading.Barrier(4)
            found = []

            def work():
                barrier.wait(timeout=10)
                found.append(_bits(dual._svd))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert found == [expected] * 4 and "T factors" not in dual._handed
    finally:
        sys.setswitchinterval(interval)


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


def _signal(frame):
    return np.arange(1.0, frame.ambient_dim + 1.0)


def _coefficients(frame):
    return np.ones(frame.size)


CALLS = {
    "frame_bounds": frame_bounds,
    "classify": classify,
    "canonical_dual": canonical_dual,
    "build_bundle": build_bundle,
    "pseudo_frame_operator": pseudo_frame_operator,
    "pseudo_gram": pseudo_gram,
    "restricted": restricted,
    "min_norm_coefficients": lambda f, tol: min_norm_coefficients(f, _signal(f), tol),
    "min_norm_preimage": lambda f, tol: min_norm_preimage(f, _coefficients(f), tol),
    "project_signal": lambda f, tol: project_signal(f, _signal(f), tol),
    "project_coefficients": lambda f, tol: project_coefficients(f, _coefficients(f), tol),
    "run_identity_suite": run_identity_suite,
    "bounds_vs_sampling": lambda f, tol: bounds_vs_sampling(f, 200, tol),
}


def _outcome(call, frame, tol):
    try:
        return "returned", _bits(call(frame, tol))
    except FramekitError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("spec", [GAUSSIAN, TALL, ILL],
                         ids=["gaussian", "gaussian_tall", "ill_conditioned_1e8"])
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


def test_verdicts_are_held_per_call_not_kept():
    # identity_abs 1e-14 fails 'T+ = T* S+' (9.8e-14) and passes T's
    # certificate, so the same kept deviations refuse one call and pass the next
    strict = Tolerance(identity_abs=1e-14)
    tols = [strict, None, strict, Tolerance(), strict]
    shared = generate(ILL_1E4)
    outcomes = set()
    for tol in tols:
        for name, call in CALLS.items():
            fresh = _outcome(call, generate(ILL_1E4), tol)
            assert _outcome(call, shared, tol) == fresh, (name, tol)
            outcomes.add(fresh[0])
    kind, message = _outcome(CALLS["min_norm_coefficients"], shared, strict)
    assert kind == "NumericalError" and "self-check 'T+ = T* S+'" in message
    assert outcomes == {"returned", "NumericalError"}


def test_handed_s_factors_that_fail_a_self_check_are_refused_on_every_call():
    # S's kept factors with every eigenvalue 1% off, handed to the frame as
    # FrameSequence._from_matrix hands T's: 'S S+ = P' reads S R_s / lambda_s
    # against L_s, and the call refuses there however often it is made
    frame = generate(GAUSSIAN)
    exact = frame._s_svd
    frame._kept["S factors"] = None, SvdFactors(
        exact.left_vectors, exact.singular_values * 1.01, exact.right_vectors, exact.rank)
    messages = []
    for call in [lambda: min_norm_coefficients(frame, np.arange(1.0, 5.0))] * 3 + [
            lambda: canonical_dual(frame)] * 3:
        with pytest.raises(NumericalError, match="self-check 'S S\\+ = P'") as info:
            call()
        messages.append(str(info.value))
    assert messages == [messages[0]] * 6
    assert "dual" not in frame._kept  # a refused call keeps no dual
    # T's own route is untouched: calls that read only T's factors still answer
    assert frame_bounds(frame) == frame_bounds(generate(GAUSSIAN))


def _kept_bytes(frame):
    """The bytes of every array a frame keeps besides T, whose columns
    `vectors` views, counting a kept dual's T and its own kept arrays. The
    route cuts are views of the kept factors, so they add none."""
    kept = 0
    for slot, (_, value) in frame._kept.items():
        if slot in frame_ops._ROUTES:
            continue
        if isinstance(value, SvdFactors):
            value = (value.left_vectors, value.singular_values, value.right_vectors)
        elif isinstance(value, np.ndarray):
            value = (value,)
        elif isinstance(value, FrameSequence):
            kept += value._matrix.nbytes + _kept_bytes(value)
            continue
        else:
            continue
        kept += sum(arr.nbytes for arr in value)
    return kept


@pytest.mark.parametrize("spec", [GAUSSIAN, TALL, GeneratorSpec("rank_deficient", 16, 32, 5),
                                  GeneratorSpec("gaussian", 32, 16, 5)],
                         ids=["4x6", "6x4", "rank_deficient_16x32", "32x16"])
def test_a_frame_keeps_the_arrays_its_docstring_states(spec):
    # T's factors 16 (n + m) k + 8 k bytes, S 16 n^2, S's factors 32 n^2 + 8 n,
    # G's lifted factors 32 m k + 8 k, k = min(n, m), and one dual's T, 16 n m:
    # the dual forms no copy of T's factors until its own are read
    frame = generate(spec)
    build_bundle(frame)
    n, m = frame.ambient_dim, frame.size
    k = min(n, m)
    factored = 16 * (n + m) * k + 8 * k + 16 * n * n + 32 * n * n + 8 * n + 32 * m * k + 8 * k
    assert _kept_bytes(frame) == factored
    canonical_dual(frame)
    assert _kept_bytes(frame) == factored + 16 * n * m
    # a cut between sigma_1 and sigma_2 keeps rank 1; the frame still keeps one dual
    sigma = frame._svd.singular_values
    dual = canonical_dual(frame, Tolerance(rank_rel=np.sqrt(sigma[1] / sigma[0]) / max(n, m)))
    assert frame._kept["dual"] == (1, dual)
    assert _kept_bytes(frame) == factored + 16 * n * m


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


def test_threads_sharing_a_fresh_frame_get_equal_results():
    # more threads than cores and a short switch interval, so the first
    # calls overlap while the frame's factors and deviations are being computed
    spec = GeneratorSpec("gaussian", 16, 32, 5)
    signal = np.arange(1.0, 17.0)

    def results(frame):
        return (_bits(min_norm_coefficients(frame, signal)), frame_bounds(frame),
                _bits(canonical_dual(frame)))

    expected = results(generate(spec))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            frame = generate(spec)
            barrier = threading.Barrier(4)
            found = []

            def work():
                barrier.wait(timeout=10)
                found.append(results(frame))

            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
            assert not any(thread.is_alive() for thread in threads)
            assert found == [expected] * 4
    finally:
        sys.setswitchinterval(interval)


@pytest.fixture
def cuts(monkeypatch):
    """count(fn, *args) runs fn and returns how many rank cuts it made."""
    made = []
    original = frame_ops._truncated

    def counting(*args, **kwargs):
        made.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(frame_ops, "_truncated", counting)

    def count(fn, *args, **kwargs):
        made.clear()
        fn(*args, **kwargs)
        return len(made)

    return count


def test_a_repeat_call_at_the_same_rank_rel_cuts_nothing(cuts):
    frame = generate(ILL_1E4)
    signal = np.arange(1.0, 5.0)
    cut = Tolerance(rank_rel=1e-3)
    assert cuts(min_norm_coefficients, frame, signal) == 2  # T and S
    assert cuts(min_norm_coefficients, frame, signal) == 0
    # other identity_abs and tightness_rel, the same rank_rel
    assert cuts(min_norm_coefficients, frame, signal,
                Tolerance(identity_abs=1e-9, tightness_rel=1e-6)) == 0
    assert cuts(frame_bounds, frame) == 0
    assert cuts(build_bundle, frame) == 1  # G
    assert cuts(min_norm_coefficients, frame, signal, cut) == 2
    assert cuts(min_norm_coefficients, frame, signal, cut) == 0
    assert cuts(min_norm_coefficients, frame, signal) == 2
    assert cuts(pseudo_gram, frame, cut) == 2  # T and G
    # one cut per route, by the rank_rel of the last call that read it
    assert {route: frame._kept[route][0] for route in frame_ops._ROUTES} == {
        "synthesis": 1e-3, "frame operator": 1e-12, "gram": 1e-3}


def test_alternating_rank_rel_gives_a_fresh_frames_bits_on_every_call():
    # rank_rel 1e-3 keeps 2 of the 4 singular values of the 4x6 frame and 6
    # of the 16 of the 16x32 one, the default all, so a call that read the
    # other tolerance's cut would differ; both tolerances project coefficients
    tols = [Tolerance(), Tolerance(rank_rel=1e-3)] * 3
    for spec in (ILL_1E4, ILL_1E4_16X32):
        fresh = {tol: {name: _outcome(call, generate(spec), tol) for name, call in CALLS.items()}
                 for tol in tols[:2]}
        for name in ("classify", "min_norm_coefficients"):
            assert fresh[tols[0]][name] != fresh[tols[1]][name], (spec, name)
        assert all(fresh[tol]["project_coefficients"][0] == "returned" for tol in tols[:2])
        shared = generate(spec)
        for tol in tols:
            for name, call in CALLS.items():
                assert _outcome(call, shared, tol) == fresh[tol][name], (spec, name, tol)
                assert _outcome(call, shared, tol) == fresh[tol][name], (spec, name, tol)


def test_a_warm_frame_still_refuses_a_tighter_identity_abs():
    # on a frame whose cuts and deviations are kept, identity_abs 1e-14 fails
    # 'T+ = T* S+' (9.8e-14) and 1e-17 fails T's certificate (at most
    # 7.8e-16); between them the default passes, so no verdict is kept
    frame = generate(ILL_1E4)
    signal = np.arange(1.0, 5.0)
    expected = _bits(min_norm_coefficients(frame, signal))
    for _ in range(2):
        with pytest.raises(NumericalError, match="self-check 'T\\+ = T\\* S\\+'"):
            min_norm_coefficients(frame, signal, Tolerance(identity_abs=1e-14))
        with pytest.raises(NumericalError, match="self-check '(T = W Sigma V\\*|[WV]\\* [WV] = I)'"):
            min_norm_coefficients(frame, signal, Tolerance(identity_abs=1e-17))
        assert _bits(min_norm_coefficients(frame, signal)) == expected


def test_handed_t_factors_that_fail_the_certificate_are_refused_on_every_call():
    # T's own factors with sigma_1 1% off, handed as _from_matrix hands a
    # dual its factors: the certificate refuses every call that reads them,
    # and no call cuts them
    t = generate(GAUSSIAN).synthesis_matrix()
    exact = svd(t)
    sigma = exact.singular_values.copy()
    sigma[0] *= 1.01
    frame = FrameSequence._from_matrix(t, {"T factors": lambda: SvdFactors(
        exact.left_vectors, sigma, exact.right_vectors, exact.rank)})
    messages = []
    for name, call in list(CALLS.items()) * 2:
        with pytest.raises(NumericalError, match="self-check 'T = W Sigma V\\*'") as info:
            call(frame, None)
        messages.append((name, str(info.value)))
    assert messages[:len(CALLS)] == messages[len(CALLS):]
    assert not frame._kept.keys() & {*frame_ops._ROUTES, "dual"}


def test_threads_alternating_rank_rel_on_one_frame_read_their_own_cuts():
    # four threads share one frame, two starting at each tolerance, and
    # alternate: a call that read a cut made under the other rank_rel would
    # keep another rank, and its bits would differ from a fresh frame's. The
    # cuts are also read through _cut directly
    tols = (Tolerance(), Tolerance(rank_rel=1e-3))
    signal = np.arange(1.0, 5.0)

    def results(frame, tol):
        analysis = _FrameAnalysis(frame, tol)
        full = {"synthesis": lambda: frame._svd, "frame operator": lambda: frame._s_svd,
                "gram": lambda: frame._g_svd(lambda: analysis["U"])}
        return (tuple(frame._cut(route, tol, full[route]).rank for route in full),
                (analysis.f_t.rank, analysis.f_s.rank, analysis.f_g.rank),
                _bits(min_norm_coefficients(frame, signal, tol)),
                _bits(canonical_dual(frame, tol)), frame_bounds(frame, tol))

    expected = [results(generate(ILL_1E4), tol) for tol in tols]
    assert [ranks for _, ranks, *_ in expected] == [(4, 4, 4), (2, 2, 2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            frame = generate(ILL_1E4)
            barrier = threading.Barrier(4)
            wrong, done = [], []

            def work(start):
                barrier.wait(timeout=10)
                for i in range(start, start + 20):
                    if results(frame, tols[i % 2]) != expected[i % 2]:
                        wrong.append(i % 2)
                done.append(start)

            threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == [] and sorted(done) == [0, 1, 2, 3]
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("spec", [GAUSSIAN, TALL], ids=["gaussian", "gaussian_tall"])
@pytest.mark.parametrize("name", CALLS)
def test_a_frame_keeps_all_it_keeps_in_one_dict(name, spec):
    # besides the vectors, T and the functions that form a dual's factors,
    # each dropped once its factors are kept, a frame and its kept dual hold
    # only the one dict that _keep reads and fills
    frame = generate(spec)
    CALLS[name](frame, None)
    duals = [value for _, value in frame._kept.values() if isinstance(value, FrameSequence)]
    for kept in [frame, *duals]:
        assert set(vars(kept)) == {"ambient_dim", "vectors", "_matrix", "_kept", "_handed"}
        assert not kept._handed.keys() & kept._kept.keys()
    for dual in duals:
        assert dual._handed.keys() | dual._kept.keys() >= {"T factors", "S factors", "G factors"}
    assert frame._handed == {} and len(duals) == (name in ("canonical_dual",
                                                           "run_identity_suite"))


@pytest.mark.parametrize("call", [frame_bounds, canonical_dual,
                                  lambda f: min_norm_coefficients(f, _signal(f))],
                         ids=["frame_bounds", "canonical_dual", "min_norm_coefficients"])
def test_calls_on_different_frames_never_wait_on_each_other(monkeypatch, call):
    # frame A's first SVD blocks until it is released; a call on frame B in
    # another thread still answers, as no lock is shared across frames
    blocked, other = generate(GeneratorSpec("gaussian", 16, 32, 0)), generate(GAUSSIAN)
    entered, release = threading.Event(), threading.Event()
    original = frame_ops._phased_svd

    def phased_svd(matrix):
        if matrix is blocked._matrix:
            entered.set()
            release.wait(timeout=30)
        return original(matrix)

    monkeypatch.setattr(frame_ops, "_phased_svd", phased_svd)
    answered = []
    first = threading.Thread(target=frame_bounds, args=(blocked,))
    second = threading.Thread(target=lambda: answered.append(call(other)))
    first.start()
    try:
        assert entered.wait(timeout=10)
        second.start()
        second.join(timeout=5)
        assert len(answered) == 1, "a call on frame B waited on frame A's first SVD"
    finally:
        release.set()
        first.join(timeout=30)
        if second.is_alive():
            second.join(timeout=30)
    assert not first.is_alive() and not second.is_alive()
