"""Each result gates on the routes it reads, and only on those.

A result that reads S+ is cross-checked between T's factorization and S's;
one that reads G+ between T's and G's; the bundle reads both. The routes
must choose the same rank, and every self-check on them must hold, with a
NaN deviation failing like a large one. A frame whose G route disagrees
with T therefore still has minimum-norm solutions, while everything that
reads G+ refuses it.
"""

from functools import cached_property
import warnings

import numpy as np
import pytest

from framekit import (
    FrameSequence,
    GeneratorSpec,
    NumericalError,
    SvdFactors,
    DEFAULT_TOLERANCE,
    Tolerance,
    build_bundle,
    canonical_dual,
    generate,
    min_norm_coefficients,
    min_norm_preimage,
    project_coefficients,
    project_signal,
    pseudo_frame_operator,
    pseudo_gram,
)
from framekit.frame_ops import _FrameAnalysis

LOOSE = Tolerance(identity_abs=1e-6)


@pytest.fixture
def wide(monkeypatch):
    # rank 2 with sigma = (1, 1e-5), whose G route drops its last kept
    # factor, so only the G route says rank 1
    original = _FrameAnalysis.f_g.func

    def dropped(a):
        f_g = original(a)
        keep = f_g.rank - 1
        return SvdFactors(f_g.left_vectors[:, :keep], f_g.singular_values[:keep],
                          f_g.right_vectors[:, :keep], keep)

    faulty = cached_property(dropped)
    faulty.__set_name__(_FrameAnalysis, "f_g")
    monkeypatch.setattr(_FrameAnalysis, "f_g", faulty)
    return generate(GeneratorSpec("ill_conditioned", 2, 200, 0, condition_target=1e5))


def test_results_reading_s_accept_a_frame_whose_gram_route_disagrees(wide):
    # the signal is frame vector 0. The results read T+ from T's kept
    # factors, so their error stays near kappa(T) * eps = 1e5 * eps; the
    # T/S gate accepts although the G route disagrees
    t = wide.synthesis_matrix()
    f = t[:, 0]
    c0 = min_norm_coefficients(wide, f, LOOSE).solution
    reference = np.linalg.lstsq(t, f, rcond=None)[0]
    assert np.linalg.norm(c0 - reference) <= 1e-5 * np.linalg.norm(reference)
    assert min_norm_preimage(wide, np.ones(200), LOOSE).solution.shape == (2,)
    # T spans the plane, so the series reproduces f
    assert np.allclose(project_signal(wide, f, LOOSE), f, rtol=0.0, atol=1e-8)
    assert canonical_dual(wide, LOOSE).size == 200
    assert pseudo_frame_operator(wide, LOOSE).shape == (2, 2)
    # a wide frame's coefficient series gates on S's route; Q c = T+ (T c)
    c = np.ones(200)
    reference = np.linalg.lstsq(t, t @ c, rcond=None)[0]
    series = project_coefficients(wide, c, LOOSE)
    assert np.linalg.norm(series - reference) <= 1e-5 * np.linalg.norm(reference)


@pytest.mark.parametrize("call", [
    lambda frame: build_bundle(frame, LOOSE),
    lambda frame: pseudo_gram(frame, LOOSE),
], ids=["build_bundle", "pseudo_gram"])
def test_results_reading_g_refuse_a_frame_whose_gram_route_disagrees(wide, call):
    with pytest.raises(NumericalError, match="gram rank 1"):
        call(wide)


def test_coefficient_series_of_a_tall_frame_refuses_a_gram_route_that_disagrees(wide):
    # where n > m the series gates on G's route, the smaller square, which the
    # wide fixture's faulty G route makes drop to rank 1 here too
    tall = generate(GeneratorSpec("ill_conditioned", 200, 2, 0, condition_target=1e5))
    with pytest.raises(NumericalError, match="gram rank 1"):
        project_coefficients(tall, np.ones(2), LOOSE)


ROUTE_READERS = {
    "build_bundle": build_bundle,
    "canonical_dual": canonical_dual,
    "min_norm_coefficients": lambda frame, tol: min_norm_coefficients(
        frame, np.ones(frame.ambient_dim), tol),
    "min_norm_preimage": lambda frame, tol: min_norm_preimage(frame, np.ones(frame.size), tol),
    "project_signal": lambda frame, tol: project_signal(frame, np.ones(frame.ambient_dim), tol),
    "project_coefficients": lambda frame, tol: project_coefficients(
        frame, np.ones(frame.size), tol),
}


@pytest.mark.parametrize("name", ROUTE_READERS)
@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e5, 1e6])
def test_routes_agree_on_rank_within_the_resolution_limit(kappa, name):
    # S and G keep T's rank decision squared, floored at their rounding
    # level, so under the default tolerance they resolve sigma_r / sigma_1
    # down to sqrt(10 max(n, m) eps), about 1e-7 to 5e-7 here
    for n, m in [(4, 6), (16, 32), (64, 128)]:
        for seed in range(2):
            frame = generate(GeneratorSpec("ill_conditioned", n, m, seed, condition_target=kappa))
            ROUTE_READERS[name](frame, DEFAULT_TOLERANCE)


@pytest.mark.parametrize("name", ROUTE_READERS)
def test_routes_past_the_resolution_limit_refuse_and_name_it(name):
    frame = generate(GeneratorSpec("ill_conditioned", 16, 32, 0, condition_target=1e8))
    with pytest.raises(NumericalError, match=r"resolution limit sqrt\(10 max\(n, m\) eps\)"):
        ROUTE_READERS[name](frame, DEFAULT_TOLERANCE)


def test_canonical_dual_of_an_underflowing_frame_raises_numerical_error():
    # S = T T* lands among the subnormals, and S+ would overflow: the
    # refusal names S+ and its lambda_r, not T's finite sigma_r
    t = generate(GeneratorSpec("gaussian", 4, 6, 0)).synthesis_matrix() * 2.0**-530
    frame = FrameSequence.from_vectors(list(t.T))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match=r"pseudoinverse S\+ .* 1/lambda_r overflows "
                                                 "for lambda_r"):
            canonical_dual(frame)


def test_preimage_of_coefficients_past_the_double_range_names_norm_split():
    # every entry is finite, and the preimage is solved on c scaled to unit
    # size, where the residual was NaN; |Q c|^2 leaves the double range
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="norm_split's inside component .* "
                                                 "squares beyond the double range"):
            min_norm_preimage(frame, np.full(6, 1e308))


def test_coefficient_projection_past_the_double_range_returns_q_c():
    # |c| = 4.2e308, but every part of Q c is finite; it matches the dense Q
    # applied to c scaled by 2^-1024
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    c = np.full(6, 1.7e308)
    expected = build_bundle(frame).coefficient_projector @ (c * 2.0**-1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_coefficients(frame, c)
    assert np.isfinite(out).all()
    assert np.max(np.abs(out * 2.0**-1024 - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_coefficient_projection_of_huge_input_returns_q_c():
    # Q c of 1e308 entries is in range; T's kept right singular vectors apply
    # Q without a product through G+ that overflows
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    c = np.full(6, 1e308)
    expected = build_bundle(frame).coefficient_projector @ c
    out = project_coefficients(frame, c)
    assert np.isfinite(out).all()
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_first_failing_self_check_names_the_error():
    # no residual reaches below 1e-20, so every self-check fails; each
    # result reads T's certified factors first, so it reports the first
    # check of T's certificate
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    strict = Tolerance(identity_abs=1e-20)
    first = "operator bundle failed self-check '{}': deviation [0-9.e+-]+ exceeds 1.000e-20$"
    with pytest.raises(NumericalError, match=first.format(r"T = W Sigma V\*")):
        build_bundle(frame, strict)
    with pytest.raises(NumericalError, match=first.format(r"T = W Sigma V\*")):
        min_norm_coefficients(frame, np.ones(4), strict)
    with pytest.raises(NumericalError, match=first.format(r"T = W Sigma V\*")):
        project_coefficients(frame, np.ones(6), strict)


def test_first_failing_route_check_names_the_error(monkeypatch):
    # with T's certificate read as exact, each result reports the first
    # self-check on the routes it reads, in gate order. The coefficient series
    # reads S's route where n <= m and G's where n > m
    monkeypatch.setattr(FrameSequence, "_certificate", (0.0, 0.0, 0.0))
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    strict = Tolerance(identity_abs=1e-20)
    first = "operator bundle failed self-check '{}': deviation [0-9.e+-]+ exceeds 1.000e-20$"
    with pytest.raises(NumericalError, match=first.format("S S\\+ = P")):
        build_bundle(frame, strict)
    with pytest.raises(NumericalError, match=first.format("S S\\+ = P")):
        min_norm_coefficients(frame, np.ones(4), strict)
    with pytest.raises(NumericalError, match=first.format("S S\\+ = P")):
        project_coefficients(frame, np.ones(6), strict)
    with pytest.raises(NumericalError, match=first.format("G G\\+ = Q")):
        project_coefficients(generate(GeneratorSpec("gaussian", 6, 4, 0)), np.ones(4), strict)
