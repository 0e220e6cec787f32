"""A call on a frame already seen returns, or raises, what it does on a fresh frame.

Once a gate's checks have all held under one rank_rel, the frame keeps their
summary in the slot of the route set (FrameSequence._keep): the routes' rank
cuts and the worst of the checks' deviations, T's certificate rows among
them. A warm call compares that worst with its own identity_abs and reads
the cuts; where the worst exceeds it, the call walks the checks again on
the kept values, as a fresh walk takes them. The frame also keeps its bounds, by
rank_rel and tightness_rel. These tests hold the reconstructions, the
bounds, the classification and the canonical dual on a shared frame to a
fresh frame's bytes and messages, across the five kinds, three shapes and
scales of 2^-300, 1 and 2^300, and on the ill_conditioned 16x32 frame of
seed 0 that the CLI tests read.
"""

import dataclasses
import re

import numpy as np
import pytest

from framekit import (
    FramekitError,
    FrameSequence,
    GENERATOR_KINDS,
    GeneratorSpec,
    NumericalError,
    SvdFactors,
    Tolerance,
    canonical_dual,
    classify,
    frame_bounds,
    generate,
    min_norm_coefficients,
    min_norm_preimage,
    project_coefficients,
    project_signal,
    svd,
)
from framekit import frame_ops


def _signal(frame):
    return np.arange(1.0, frame.ambient_dim + 1.0) * (1.0 - 0.5j)


def _coefficients(frame):
    return np.linspace(-1.0, 2.0, frame.size) + 0.25j


CALLS = {
    "min_norm_coefficients": lambda f, tol: min_norm_coefficients(f, _signal(f), tol),
    "min_norm_preimage": lambda f, tol: min_norm_preimage(f, _coefficients(f), tol),
    "project_signal": lambda f, tol: project_signal(f, _signal(f), tol),
    "project_coefficients": lambda f, tol: project_coefficients(f, _coefficients(f), tol),
    "frame_bounds": frame_bounds,
    "canonical_dual": canonical_dual,
    "classify": classify,
}


def _bits(value):
    """Everything a result holds, in a form that compares equal only bit for bit."""
    if isinstance(value, np.ndarray):
        return value.shape, value.dtype.str, value.tobytes()
    if isinstance(value, FrameSequence):
        return _bits(value.synthesis_matrix())
    if dataclasses.is_dataclass(value):
        return tuple(_bits(getattr(value, f.name)) for f in dataclasses.fields(value))
    return repr(value)  # a float's repr round-trips exactly


def _outcome(call, frame, tol):
    try:
        return "returned", _bits(call(frame, tol))
    except FramekitError as exc:
        return type(exc).__name__, str(exc)


def _spec(kind, n, m, seed):
    return GeneratorSpec(kind, n, m, seed,
                         condition_target=1e4 if kind == "ill_conditioned" else None)


def _scaled(spec, exponent):
    t = generate(spec).synthesis_matrix() * 2.0**exponent
    return FrameSequence.from_vectors(list(t.T), spec.n)


GRID = [(kind, n, m, exponent, 2) for kind in GENERATOR_KINDS
        for n, m in ((4, 6), (6, 4), (16, 32)) for exponent in (-300, 0, 300)]
GRID.append(("ill_conditioned", 16, 32, 0, 0))
GRID_IDS = [f"{kind}-{n}x{m}-2^{exponent}" + ("" if seed == 2 else f"-seed{seed}")
            for kind, n, m, exponent, seed in GRID]


@pytest.mark.parametrize("kind, n, m, exponent, seed", GRID, ids=GRID_IDS)
def test_alternating_tolerances_on_a_shared_frame_give_a_fresh_frames_bytes(
        kind, n, m, exponent, seed):
    spec = _spec(kind, n, m, seed)
    tols = [Tolerance(), Tolerance(rank_rel=1e-3)]
    fresh = {tol: {name: _outcome(call, _scaled(spec, exponent), tol)
                   for name, call in CALLS.items()} for tol in tols}
    shared = _scaled(spec, exponent)
    for tol in tols * 3:
        for name, call in CALLS.items():
            assert _outcome(call, shared, tol) == fresh[tol][name], (name, tol)


def _kept_worst(frame):
    """The largest deviation the frame keeps for the calls made on it: the
    worst of each gate summary, which holds T's certificate rows, and the
    certificate itself for the calls that read T's factors alone."""
    summaries = [value for slot, (_, value) in frame._kept.items()
                 if isinstance(slot, tuple) and all(name in frame_ops._ROUTES for name in slot)]
    return max([max(frame._certificate)] + [worst for _, worst in summaries])


@pytest.mark.parametrize("kind, n, m, exponent, seed", GRID, ids=GRID_IDS)
def test_an_identity_abs_below_the_kept_worst_raises_the_fresh_frames_message(
        kind, n, m, exponent, seed):
    spec = _spec(kind, n, m, seed)
    loose = Tolerance(identity_abs=1e-6)
    refused = 0
    for name, call in CALLS.items():
        shared = _scaled(spec, exponent)
        passed = _outcome(call, shared, loose)
        worst = _kept_worst(shared)
        if passed[0] != "returned" or worst == 0.0:
            continue  # nothing passed to keep, or no identity_abs lies below 0
        tight = Tolerance(identity_abs=worst / 2)
        expected = _outcome(call, _scaled(spec, exponent), tight)
        assert expected[0] == "NumericalError", (name, expected)
        for _ in range(2):
            assert _outcome(call, shared, tight) == expected, name
            assert _outcome(call, shared, loose) == passed, name  # no verdict is kept
        refused += 1
    assert refused >= 3


def _failing_s_factors(frame):
    """S's own factors with every eigenvalue 1% off: 'S S+ = P' reads 1e-2."""
    exact = frame._s_svd
    frame._kept["S factors"] = None, SvdFactors(
        exact.left_vectors, exact.singular_values * 1.01, exact.right_vectors, exact.rank)
    return frame


def _failing_g_factors(frame):
    """G's own lifted factors with every eigenvalue 1% off: 'G G+ = Q' reads 1e-2."""
    exact = frame._g_svd(lambda: frame.synthesis_matrix().conj().T)
    frame._kept["G factors"] = None, SvdFactors(
        exact.left_vectors, exact.singular_values * 1.01, exact.right_vectors, exact.rank)
    return frame


def _failing_t_factors(frame):
    """A frame handed T's factors with sigma_1 1% off, which its certificate refuses."""
    t = frame.synthesis_matrix()
    exact = svd(t)
    sigma = exact.singular_values.copy()
    sigma[0] *= 1.01
    return FrameSequence._from_matrix(t, {"T factors": lambda: SvdFactors(
        exact.left_vectors, sigma, exact.right_vectors, exact.rank)})


@pytest.mark.parametrize("spec, failing, check, refused", [
    (GeneratorSpec("gaussian", 4, 6, 3), _failing_s_factors, "S S+ = P",
     {"min_norm_coefficients", "min_norm_preimage", "project_signal", "project_coefficients",
      "canonical_dual"}),
    (GeneratorSpec("gaussian", 6, 4, 3), _failing_g_factors, "G G+ = Q",
     {"project_coefficients"}),
    (GeneratorSpec("gaussian", 4, 6, 3), _failing_t_factors, "T = W Sigma V*", set(CALLS)),
], ids=["S", "G", "T"])
def test_handed_factors_that_fail_a_self_check_are_refused_on_every_call(
        spec, failing, check, refused):
    # a loose identity_abs passes the 1% deviation, and the frame keeps it;
    # every call under a tolerance it fails still refuses, naming the check
    loose = Tolerance(identity_abs=0.5)
    tols = [Tolerance(), loose, Tolerance(), Tolerance(rank_rel=1e-3), loose, Tolerance()]
    shared = failing(generate(spec))
    for tol in tols:
        for name, call in CALLS.items():
            got = _outcome(call, shared, tol)
            assert got == _outcome(call, failing(generate(spec)), tol), (name, tol)
            if tol == Tolerance() and name in refused:
                assert got[0] == "NumericalError" and f"self-check '{check}'" in got[1], name
    with pytest.raises(NumericalError, match=re.escape(f"self-check '{check}'")):
        CALLS[sorted(refused)[0]](shared, None)


def test_the_frame_keeps_its_bounds_by_rank_rel_and_tightness_rel():
    # tightness_rel 1e-20 lies below the tight frame's |B/A - 1|, so the two
    # tolerances give different verdicts from one kept cut of T
    frame = generate(GeneratorSpec("tight", 4, 6, 0))
    strict = Tolerance(tightness_rel=1e-20)
    first = frame_bounds(frame)
    assert frame._kept["bounds"] == ((1e-12, 1e-8), first)
    assert frame_bounds(frame) is first
    assert frame_bounds(frame, Tolerance(identity_abs=1e-9)) is first
    for _ in range(2):
        assert frame_bounds(frame, strict) == frame_bounds(generate(GeneratorSpec("tight", 4, 6, 0)),
                                                           strict)
        assert not classify(frame, strict).is_tight and classify(frame).is_tight
    assert frame._kept["bounds"][0] == (1e-12, 1e-8)
