"""T's factors are certified once per frame, and the gates read route factors.

FrameSequence keeps, next to T's untruncated SVD, three deviations that say
how far those factors are from an SVD of T: the residual |T - W Sigma V*|
of the whole T relative to sigma_1, and |W* W - I| and |V* V - I| (the test
ratios of LAPACK's xBDT01 and xUNT01). Every call holds them against its own
identity_abs before it reads T's factors, so a wrong singular value is
refused by the bounds and the classification as well as by every gated
result. The T/S and T/G gates check S and G on their n x r and
m x r factors, so no gate forms P, Q, S+ or G+.
"""

from functools import cached_property

import numpy as np
import pytest

from framekit import (
    FrameSequence,
    GeneratorSpec,
    NumericalError,
    SvdFactors,
    Tolerance,
    bounds_vs_sampling,
    build_bundle,
    canonical_dual,
    classify,
    frame_bounds,
    generate,
    min_norm_coefficients,
    min_norm_preimage,
    numerical_rank,
    op_norm,
    pinv,
    polarization_check,
    project_coefficients,
    project_signal,
    pseudo_frame_operator,
    pseudo_gram,
    range_projector,
    restricted,
    run_identity_suite,
    svd,
)
from framekit.frame_ops import _FrameAnalysis

KINDS = ["gaussian", "tight", "rank_deficient", "duplicated"]


def scaled(spec, exponent):
    t = generate(spec).synthesis_matrix() * 2.0**exponent
    return FrameSequence.from_vectors(list(t.T))


@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32), (64, 128)])
@pytest.mark.parametrize("kind", KINDS)
def test_an_honest_certificate_reads_rounding_level_at_every_scale(kind, n, m):
    # the residual is taken relative to sigma_1 on T scaled by a power of two,
    # so it stays at rounding level at 2^-500 and 2^500 as at 1
    spec = GeneratorSpec(kind, n, m, 1)
    for exponent in (-500, 0, 500):
        assert max(scaled(spec, exponent)._certificate) <= 10 * max(n, m) * np.finfo(float).eps


@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32)])
@pytest.mark.parametrize("kind, kappa", [*((kind, None) for kind in KINDS),
                                         ("ill_conditioned", 1e4), ("ill_conditioned", 1e6)])
def test_a_canonical_duals_certificate_reads_rounding_level_at_every_scale(kind, kappa, n, m):
    # the dual is handed T's kept factors reversed, with sigma -> 1/sigma, and
    # its matrix is W Sigma^-1 V* from those same factors
    spec = GeneratorSpec(kind, n, m, 1, condition_target=kappa)
    for exponent in range(-300, 301, 100):
        dual = canonical_dual(scaled(spec, exponent))
        assert max(dual._certificate) <= 10 * max(n, m) * np.finfo(float).eps


def test_one_certificate_serves_every_tolerance():
    # the frame keeps deviations, not a verdict: a tolerance below them
    # refuses, and the same frame then answers the default tolerance
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    certificate = frame._certificate
    with pytest.raises(NumericalError, match=r"self-check 'T = W Sigma V\*'"):
        frame_bounds(frame, Tolerance(identity_abs=1e-20))
    assert frame_bounds(frame).lower > 0.0
    assert frame._certificate is certificate


def test_the_zero_frame_is_certified_and_classified():
    frame = FrameSequence.from_vectors([np.zeros(3), np.zeros(3)])
    assert frame._certificate[0] == 0.0
    assert classify(frame).is_degenerate


TIGHT = GeneratorSpec("tight", 4, 6, 2)
GAUSSIAN = GeneratorSpec("gaussian", 4, 6, 2)

# every call that reads T's factors, each on the frame it reads them from
READERS = {
    "frame_bounds": (TIGHT, frame_bounds),
    "classify": (TIGHT, classify),
    "pseudo_frame_operator": (TIGHT, pseudo_frame_operator),
    "pseudo_gram": (TIGHT, pseudo_gram),
    "restricted": (TIGHT, restricted),
    "bounds_vs_sampling": (TIGHT, lambda f: bounds_vs_sampling(f, 100)),
    "polarization_check": (TIGHT, lambda f: polarization_check(f, 10)),
    "build_bundle": (GAUSSIAN, build_bundle),
    "canonical_dual": (GAUSSIAN, canonical_dual),
    "pseudo_frame_operator-gaussian": (GAUSSIAN, pseudo_frame_operator),
    "pseudo_gram-gaussian": (GAUSSIAN, pseudo_gram),
    "min_norm_coefficients": (GAUSSIAN, lambda f: min_norm_coefficients(f, np.ones(4))),
    "min_norm_preimage": (GAUSSIAN, lambda f: min_norm_preimage(f, np.ones(6))),
    "project_signal": (GAUSSIAN, lambda f: project_signal(f, np.ones(4))),
    "project_coefficients": (GAUSSIAN, lambda f: project_coefficients(f, np.ones(6))),
    "run_identity_suite": (GAUSSIAN, run_identity_suite),
    # the matrix helpers read the analysis of the matrix's columns
    "svd": (GAUSSIAN, lambda f: svd(f.synthesis_matrix())),
    "numerical_rank": (GAUSSIAN, lambda f: numerical_rank(f.synthesis_matrix())),
    "op_norm": (GAUSSIAN, lambda f: op_norm(f.synthesis_matrix())),
    "pinv": (GAUSSIAN, lambda f: pinv(f.synthesis_matrix())),
    "range_projector": (GAUSSIAN, lambda f: range_projector(f.synthesis_matrix())),
}


@pytest.fixture(params=[1.01, 1.0 + 1e-8], ids=["1.01", "1+1e-8"])
def wrong_sigma(request, monkeypatch):
    # T's singular values scaled by the factor after the SVD
    original = FrameSequence._svd.fget

    def wrong(frame):
        f = original(frame)
        return SvdFactors(f.left_vectors, request.param * f.singular_values, f.right_vectors,
                          f.rank)

    monkeypatch.setattr(FrameSequence, "_svd", property(wrong))


@pytest.mark.parametrize("name", READERS)
def test_a_wrong_singular_value_of_t_is_refused_by_every_reader(wrong_sigma, name):
    spec, call = READERS[name]
    with pytest.raises(NumericalError, match=r"self-check 'T = W Sigma V\*'"):
        call(generate(spec))


@pytest.fixture
def wrong_s_route(monkeypatch):
    # S's eigenvalues scaled by 1.01
    original = _FrameAnalysis.f_s.func

    def wrong(analysis):
        f_s = original(analysis)
        return SvdFactors(f_s.left_vectors, 1.01 * f_s.singular_values, f_s.right_vectors,
                          f_s.rank)

    faulty = cached_property(wrong)
    faulty.__set_name__(_FrameAnalysis, "f_s")
    monkeypatch.setattr(_FrameAnalysis, "f_s", faulty)


@pytest.mark.parametrize("name", ["build_bundle", "canonical_dual", "pseudo_frame_operator",
                                  "pseudo_frame_operator-gaussian", "min_norm_coefficients",
                                  "min_norm_preimage", "project_signal", "project_coefficients",
                                  "run_identity_suite", "pinv", "range_projector"])
def test_a_wrong_frame_operator_route_is_refused_by_every_reader(wrong_s_route, name):
    spec, call = READERS[name]
    with pytest.raises(NumericalError, match=r"self-check 'S S\+ = P'"):
        call(generate(spec))


@pytest.mark.parametrize("n, m", [(4, 6), (64, 128)])
@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient"])
def test_no_gate_forms_a_dense_projector_or_pseudoinverse(kind, n, m):
    for routes in (("synthesis", "frame operator"), ("synthesis", "gram")):
        a = _FrameAnalysis(generate(GeneratorSpec(kind, n, m, 0)))
        a.gate(*routes)
        assert not {"P", "Q", "S+", "G+"} & a._formed.keys()
