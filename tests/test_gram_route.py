"""The gram route factors G = U U* through U's reduced QR.

With U = Q1 R1 (Q1 m x k, k = min(n, m)), G = Q1 (R1 R1*) Q1*: the k x k
core is factored and its factors are lifted by Q1. The lifted vectors must
be orthonormal and lie in range(U), and G+ must be as accurate as T's own
conditioning allows, where forming and factoring the m x m G squares it.
Each call that reads the route runs one QR per route, and the calls that
do not read it run none.
"""

from functools import cached_property

import numpy as np
import pytest

from framekit import (
    FrameSequence,
    GENERATOR_KINDS,
    GeneratorSpec,
    NumericalError,
    SvdFactors,
    Tolerance,
    build_bundle,
    generate,
    min_norm_coefficients,
    project_coefficients,
    pseudo_gram,
    run_identity_suite,
    scaled_deviation,
)
from framekit.frame_ops import _FrameAnalysis
from framekit.verifier import _orthonormal_columns


def spec(kind, n, m, seed):
    return GeneratorSpec(kind, n, m, seed,
                         condition_target=1e4 if kind == "ill_conditioned" else None)


# a 5 x 1 frame can be neither rank deficient, duplicated nor ill conditioned
SHAPES = [(kind, n, m) for kind in GENERATOR_KINDS for n, m in [(4, 6), (16, 32), (6, 4), (5, 1)]
          if m > 1 or kind in ("gaussian", "tight")]


@pytest.mark.parametrize("kind, n, m", SHAPES)
def test_lifted_factors_are_orthonormal_and_in_the_range_of_u(kind, n, m):
    # two factorizations place range(U) only within about kappa * eps of each
    # other, so the kappa = 1e4 frames get 1e-11; the m x m route read 1.6e-9
    # to 3.1e-9 on them
    in_range = 1e-11 if kind == "ill_conditioned" else 1e-13
    for seed in range(2):
        a = _FrameAnalysis(generate(spec(kind, n, m, seed)))
        f_g = a.f_g
        assert f_g.rank == a.f_t.rank
        for v in (f_g.left_vectors, f_g.right_vectors):
            assert v.shape == (m, f_g.rank)
            assert not v.flags.writeable
            assert np.linalg.norm(v.conj().T @ v - np.eye(f_g.rank)) <= 1e-13
            assert np.linalg.norm(a["Q"] @ v - v) <= in_range


def test_zero_frame_has_an_empty_gram_route():
    a = _FrameAnalysis(FrameSequence.from_vectors([np.zeros(3)] * 5))
    assert a.f_g.rank == 0
    assert a.f_g.singular_values.shape == (0,)
    assert a["G+"].shape == (5, 5)
    assert not a["G+"].any()


def planted(n, m, kappa, seed):
    """generate's ill_conditioned frame and V Sigma^-2 V* from its planted factors."""
    frame = generate(GeneratorSpec("ill_conditioned", n, m, seed, condition_target=kappa))
    rng = np.random.Generator(np.random.PCG64(seed))  # replays generate's draws
    r = min(n, m)
    sigma = np.geomspace(1.0, 1.0 / kappa, r)
    _orthonormal_columns(rng, n, r)
    right = _orthonormal_columns(rng, m, r)
    return frame, (right / sigma ** 2) @ right.conj().T


@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32), (64, 128)])
@pytest.mark.parametrize("kappa", [1e2, 1e4, 1e6])
def test_gram_pinv_matches_the_planted_answer(kappa, n, m):
    # T is the planted frame rounded to doubles, which moves G+ by about
    # kappa * eps relative, so the planted V Sigma^-2 V* is only that exact.
    # The bound is 1e-10 at kappa = 1e4 and scales with kappa. Factoring the
    # formed m x m G squares the conditioning: that route read 5.3e-9 at
    # kappa = 1e4 and 5.5e-5 at 1e6 here
    for seed in range(2):
        frame, exact = planted(n, m, kappa, seed)
        g_pinv = _FrameAnalysis(frame, Tolerance(rank_rel=1e-15))["G+"]
        assert np.abs(g_pinv - exact).max() / np.abs(exact).max() <= 1e-14 * kappa


@pytest.mark.parametrize("n, m", [(4, 6), (16, 32)])
def test_gram_pinv_does_not_leak_into_the_kernel(n, m):
    # G+ (I - Q) = 0; the m x m route left 1e-9 to 3e-9 of max|G+| here
    for seed in range(4):
        a = _FrameAnalysis(generate(spec("ill_conditioned", n, m, seed)))
        leak = np.abs(a["G+"] @ (np.eye(m) - a["Q"])).max()
        assert leak / np.abs(a["G+"]).max() <= 1e-11


@pytest.fixture
def qr_calls(monkeypatch):
    """count(fn, *args) runs fn and returns how often it called np.linalg.qr."""
    calls = []
    original = np.linalg.qr

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "qr", counting)

    def count(fn, *args, **kwargs):
        calls.clear()
        fn(*args, **kwargs)
        return len(calls)

    return count


def test_qr_counts(qr_calls):
    frame = generate(GeneratorSpec("gaussian", 4, 6, 3))
    # one QR per gram route: the frame's, and in the suite also its dual's
    assert qr_calls(project_coefficients, frame, np.ones(6)) == 1
    assert qr_calls(build_bundle, frame) == 1
    assert qr_calls(run_identity_suite, frame) == 2
    assert qr_calls(min_norm_coefficients, frame, np.ones(4)) == 0


# ------------------------------------------------------ the T/G gate's checks

def scaled_lambda(f_g, frame):
    """G's factors with every eigenvalue scaled by 1 + 1e-8."""
    return SvdFactors(f_g.left_vectors, f_g.singular_values * (1 + 1e-8), f_g.right_vectors,
                      f_g.rank)


def tilted_pair(f_g, frame):
    """G's factors with the last L_g/R_g pair tilted by 1e-8 toward ker T."""
    v = _FrameAnalysis(frame).f_t.right_vectors
    k = np.random.Generator(np.random.PCG64(5)).standard_normal(frame.size).astype(complex)
    k -= v @ (v.conj().T @ k)
    k /= np.linalg.norm(k)
    left, right = f_g.left_vectors.copy(), f_g.right_vectors.copy()
    for x in (left, right):
        x[:, -1] += 1e-8 * k
        x[:, -1] /= np.linalg.norm(x[:, -1])
    return SvdFactors(left, f_g.singular_values, right, f_g.rank)


@pytest.fixture(params=[scaled_lambda, tilted_pair], ids=["scaled_lambda", "tilted_pair"])
def faulty_gram_route(request, monkeypatch):
    original = _FrameAnalysis.f_g.func
    faulty = cached_property(lambda a: request.param(original(a), a.frame))
    faulty.__set_name__(_FrameAnalysis, "f_g")
    monkeypatch.setattr(_FrameAnalysis, "f_g", faulty)


# a tight frame's pseudo_gram is Q / A from T alone and reads no G route
@pytest.mark.parametrize("kind, entry", [
    ("gaussian", lambda f: project_coefficients(f, np.ones(f.size))),
    ("tight", lambda f: project_coefficients(f, np.ones(f.size))),
    ("gaussian", build_bundle),
    ("tight", build_bundle),
    ("gaussian", pseudo_gram),
], ids=["project_coefficients-gaussian", "project_coefficients-tight", "build_bundle-gaussian",
        "build_bundle-tight", "pseudo_gram-gaussian"])
def test_the_gram_gate_refuses_a_faulty_route(faulty_gram_route, kind, entry):
    frame = generate(spec(kind, 16, 32, 0))
    with pytest.raises(NumericalError, match=r"self-check '(G G\+ = Q|G\+ G = Q)'"):
        entry(frame)


@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_the_gram_gate_forms_no_m_by_m_operator(kind, n, m):
    a = _FrameAnalysis(generate(spec(kind, n, m, 0)))
    a.gate("synthesis", "gram")
    assert not {"G", "G+", "Q"} & a._operators.keys()


@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32)])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_the_returned_gram_pinv_obeys_the_dense_identities(kind, n, m):
    # the gate checks G+ on G's factors; the dense GG+ = G+G = Q still holds
    # on what build_bundle and pseudo_gram return
    frame = generate(spec(kind, n, m, 0))
    tol = Tolerance(identity_abs=1e-6) if kind == "ill_conditioned" else Tolerance()
    bundle = build_bundle(frame, tol)
    g, q = bundle.gram, bundle.coefficient_projector
    pinvs = [bundle.gram_pinv] + ([] if kind == "tight" else [pseudo_gram(frame, tol)])
    for g_pinv in pinvs:
        assert scaled_deviation(g @ g_pinv, q, (g, g_pinv)) <= tol.identity_abs
        assert scaled_deviation(g_pinv @ g, q, (g_pinv, g)) <= tol.identity_abs
