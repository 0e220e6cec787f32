"""Each result gates on the routes it reads, and only on those.

A result that reads S+ is cross-checked between T's factorization and S's;
one that reads G+ between T's and G's; the bundle reads both. The routes
must choose the same rank, and every self-check on them must hold, with a
NaN deviation failing like a large one. A frame whose G route disagrees
with T therefore still has minimum-norm solutions, while everything that
reads G+ refuses it.
"""

import numpy as np
import pytest

from framekit import (
    FrameSequence,
    GeneratorSpec,
    NumericalError,
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

LOOSE = Tolerance(identity_abs=1e-6)


@pytest.fixture(scope="module")
def wide():
    # rank 2 with sigma = (1, 1e-5). The rank cutoff scales with the
    # matrix's size: S (2 x 2) keeps sigma_2^2 = 1e-10 above 2e-12, while
    # G (200 x 200) drops it below 2e-10, so only the G route says rank 1
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


@pytest.mark.parametrize("call", [
    lambda frame: build_bundle(frame, LOOSE),
    lambda frame: project_coefficients(frame, np.ones(200), LOOSE),
    lambda frame: pseudo_gram(frame, LOOSE),
], ids=["build_bundle", "project_coefficients", "pseudo_gram"])
def test_results_reading_g_refuse_a_frame_whose_gram_route_disagrees(wide, call):
    with pytest.raises(NumericalError, match="gram rank 1"):
        call(wide)


def test_canonical_dual_of_an_underflowing_frame_raises_numerical_error():
    # S = T T* lands among the subnormals, and S+ would overflow
    t = generate(GeneratorSpec("gaussian", 4, 6, 0)).synthesis_matrix() * 2.0**-530
    frame = FrameSequence.from_vectors(list(t.T))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="1/sigma_r overflows for sigma_r"):
            canonical_dual(frame)


@pytest.mark.parametrize("entry, value", [(min_norm_preimage, 1e308),
                                          (project_coefficients, 1.7e308)],
                         ids=["min_norm_preimage", "project_coefficients"])
def test_nan_reconstruction_residual_raises(entry, value):
    # every entry is finite, but the products overflow and the residual is NaN
    # (for project_coefficients, Q c itself leaves the double range)
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalError, match="deviates by nan"):
            entry(frame, np.full(6, value))


def test_coefficient_projection_of_huge_input_returns_q_c():
    # Q c of 1e308 entries is in range; the G route's basis applies Q
    # without a product through G+ that overflows
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    c = np.full(6, 1e308)
    expected = build_bundle(frame).coefficient_projector @ c
    out = project_coefficients(frame, c)
    assert np.isfinite(out).all()
    assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_first_failing_self_check_names_the_error():
    # no residual reaches below 1e-20, so every self-check fails; each
    # result reports the first one on the routes it reads, in gate order
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    strict = Tolerance(identity_abs=1e-20)
    first = "operator bundle failed self-check '{}': deviation [0-9.e+-]+ exceeds 1.000e-20$"
    with pytest.raises(NumericalError, match=first.format("S S\\+ = P")):
        build_bundle(frame, strict)
    with pytest.raises(NumericalError, match=first.format("S S\\+ = P")):
        min_norm_coefficients(frame, np.ones(4), strict)
    with pytest.raises(NumericalError, match=first.format("G G\\+ = Q")):
        project_coefficients(frame, np.ones(6), strict)
