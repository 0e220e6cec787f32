"""Bounds that leave the double range raise a typed error, never inf or 0.

The optimal bounds are the squared extreme singular values of T. For a
frame scaled by 2^-700 they underflow to 0, and for one scaled by 2^560
they overflow to inf; both scales are exact, so the singular values
themselves stay representable. Either way the caller gets NumericalError
(exit 1 from the CLI) naming sigma_max and sigma_min; a subnormal lower
bound, which has lost bits, is refused the same way, so a tight frame's
P/A and Q/A stay finite. A pseudoinverse whose largest entry 1/sigma_r
would overflow raises NumericalError naming the pseudoinverse and sigma_r
(lambda_r for S+ and G+) before anything is divided. A frame operator S or gram core R1 R1* whose entries overflow
raises NumericalError naming it, without an overflow warning. The restricted
frame operator W*SW = diag(sigma^2) and its inverse are refused with the
bounds.

Every Frobenius or vector norm a check is scaled by, in the gate, the
suite, scaled_deviation and the reconstruction checks, is taken by one function,
matrix_core._norm, on entries scaled by an exact power of two, so no square
overflows or underflows. frame_ops._deviation divides the residual by the
norms' product kept as a mantissa and a power of two, and refuses when a
norm is itself inf. So a check is not made vacuous by an infinite Frobenius
norm of S. The reconstructions solve and check on their input scaled to
unit size, and a result or norm_split component that leaves the double
range when scaled back raises NumericalError naming it. Across 2^-500 to
2^500 no entry point lets a bare RuntimeWarning escape. The identity suite
refuses a frame with sigma_1 >= 2^341, where two rows' products of size
sigma_1^3 could overflow, before any row runs.
"""

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from framekit import (
    FramekitError,
    GENERATOR_KINDS,
    FrameSequence,
    GeneratorSpec,
    NumericalError,
    SvdFactors,
    classify,
    frame_bounds,
    generate,
    build_bundle,
    canonical_dual,
    min_norm_coefficients,
    min_norm_preimage,
    pinv,
    project_coefficients,
    project_signal,
    pseudo_frame_operator,
    pseudo_gram,
    restricted,
    run_identity_suite,
    scaled_deviation,
    svd,
)
from framekit import reconstruct
from framekit.cli import EXIT_VERIFICATION_FAILED, main
from framekit.frame_ops import _FrameAnalysis
from framekit.matrix_core import _norm
from framekit.reconstruct import _check

SCALES = [2.0**-700, 2.0**560]


def scaled_frame(scale):
    t = generate(GeneratorSpec("gaussian", 3, 5, 0)).synthesis_matrix() * scale
    return FrameSequence.from_vectors(list(t.T))


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("entry", [frame_bounds, classify])
def test_bounds_outside_the_double_range_raise(entry, scale):
    frame = scaled_frame(scale)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="sigma_max .* and sigma_min .*"):
            entry(frame)


def test_pinv_of_a_subnormal_matrix_raises():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="sigma_r 1.000e-310"):
            pinv([[1e-310]])


# T's sigma_r is 1e-160, and its T+ finite; S's lambda_r is 1e-320, G's too
# on the transpose, so the refusal names S+ or G+ and lambda_r
SUBNORMAL_SQUARE = [[1e-160, 0.0, 1e-160], [0.0, 1e-160, 2e-160]]


@pytest.mark.parametrize("call, message", [
    (lambda: pinv([[1e-310]]), "T+ leaves the double range: 1/sigma_r overflows for sigma_r 1.000e-310"),
    (lambda: pinv(SUBNORMAL_SQUARE), "S+ leaves the double range: 1/lambda_r overflows "
                                     "for lambda_r 1.000e-320"),
    (lambda: build_bundle(FrameSequence._from_matrix(np.array(SUBNORMAL_SQUARE))),
     "S+ leaves the double range: 1/lambda_r overflows for lambda_r 1.000e-320"),
    (lambda: pinv(np.transpose(SUBNORMAL_SQUARE)), "G+ leaves the double range: 1/lambda_r "
                                                   "overflows for lambda_r 1.000e-320"),
], ids=["T+", "S+", "S+_bundle", "G+"])
def test_an_overflowing_pseudoinverse_is_named(call, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError) as info:
            call()
    assert str(info.value) == "the pseudoinverse " + message


S_PLUS_OVERFLOWS = r"the pseudoinverse S\+ leaves the double range: 1/lambda_r overflows"
SUBNORMAL_BOUND = r"the frame bounds leave the double range: .* and \d\.\d{3}e-3\d\d$"


@pytest.mark.parametrize("exponent", [515, 520, 525, 530, 535])
@pytest.mark.parametrize("entry, message", [
    (build_bundle, S_PLUS_OVERFLOWS),
    (canonical_dual, S_PLUS_OVERFLOWS),
    (pseudo_frame_operator, SUBNORMAL_BOUND),
    (pseudo_gram, SUBNORMAL_BOUND),
    (lambda frame: project_coefficients(frame, np.ones(frame.size)), S_PLUS_OVERFLOWS),
], ids=["build_bundle", "canonical_dual", "pseudo_frame_operator", "pseudo_gram",
        "project_coefficients"])
def test_pseudoinverse_outside_the_double_range_raises(entry, message, exponent):
    # T's singular values are near 2^-exponent, so those of S and G square
    # to about 2^-1040 or less, and S's 1/lambda_r overflows; the pseudo_* calls
    # first read the classification, and the lower bound A = sigma_r^2 is
    # subnormal, so the bounds refuse
    frame = scaled_frame(2.0**-exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=message):
            entry(frame)


def scaled(kind, seed, exponent):
    n, m = (4, 6) if kind == "tight" else (3, 5)
    t = generate(GeneratorSpec(kind, n, m, seed)).synthesis_matrix() * 2.0**exponent
    return FrameSequence.from_vectors(list(t.T))


@pytest.mark.parametrize("entry", [pseudo_frame_operator, pseudo_gram])
def test_pseudo_inverse_of_a_tight_frame_with_a_subnormal_bound_raises(entry):
    # A is about 1e-313, subnormal, where S+ and G+ would lose bits; the
    # classification refuses it before the gate reads S or G
    frame = scaled("tight", 2, -520)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"the frame bounds leave .* and 3\.598e-314$"):
            entry(frame)


@pytest.mark.parametrize("entry, operator", [
    (build_bundle, "frame operator S"),
    (canonical_dual, "frame operator S"),
    (lambda frame: project_coefficients(frame, np.ones(frame.size)), "frame operator S"),
    # the adjoint frame is tall, and there the series gates on G's route
    (lambda frame: project_coefficients(FrameSequence._from_matrix(frame.synthesis_matrix().T),
                                        np.ones(frame.ambient_dim)), "gram matrix G's core"),
], ids=["build_bundle", "canonical_dual", "project_coefficients", "project_coefficients-tall"])
def test_operators_outside_the_double_range_raise(entry, operator):
    # sigma_max is about 1e157, so S = T U and G's core R1 R1* overflow
    frame = scaled("gaussian", 2, 520)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"the {operator}.* leaves the double range"):
            entry(frame)


# W*SW = diag(sigma^2) and its inverse are refused with the bounds: at 2^-520
# sigma_r^2 near 2^-1040 is subnormal
@pytest.mark.parametrize("exponent", [520, 540, -520])
def test_restricted_operators_outside_the_double_range_raise(exponent):
    frame = scaled("gaussian", 2, exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="the frame bounds leave the double range"):
            restricted(frame)


def test_cli_dual_reports_a_frame_operator_outside_the_double_range(tmp_path, capsys):
    frame = scaled("gaussian", 2, 520)
    doc = tmp_path / "frame.json"
    doc.write_text(json.dumps({
        "ambient_dim": frame.ambient_dim,
        "vectors": [[[z.real, z.imag] for z in v] for v in frame.vectors],
    }))
    assert main(["dual", str(doc)]) == EXIT_VERIFICATION_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: the frame operator S leaves the double range")


@pytest.mark.parametrize("scale", SCALES)
def test_cli_analyze_reports_bounds_outside_the_double_range(scale, tmp_path, capsys):
    frame = scaled_frame(scale)
    doc = tmp_path / "frame.json"
    doc.write_text(json.dumps({
        "ambient_dim": frame.ambient_dim,
        "vectors": [[[z.real, z.imag] for z in v] for v in frame.vectors],
    }))
    assert main(["analyze", str(doc)]) == EXIT_VERIFICATION_FAILED
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "sigma_max" in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("scale", [2.0**-500, 1.0, 2.0**500])
def test_bounds_inside_the_double_range_are_the_squared_singular_values(scale):
    frame = scaled_frame(scale)
    s = svd(frame.synthesis_matrix()).singular_values
    bounds = frame_bounds(frame)
    assert bounds.upper == float(s[0] ** 2)
    assert bounds.lower == float(s[-1] ** 2)
    assert 0.0 < bounds.lower <= bounds.upper < np.inf


def test_reconstruction_ceiling_is_finite_for_huge_entries():
    # |v| = 2e200; squaring the entries overflowed, which made the scale
    # inf and every result check vacuous
    analysis = _FrameAnalysis(generate(GeneratorSpec("gaussian", 4, 6, 0)))
    v = np.full(4, 1e200)
    _check(analysis, "huge", v + 2e189, v, _norm(v))  # deviates by 1e-11
    with pytest.raises(NumericalError,
                       match=re.escape("'huge' deviates by 1.000e-09, beyond 1.000e-10")):
        _check(analysis, "huge", v + 2e191, v, _norm(v))


def test_reconstruction_check_refuses_when_its_scale_passes_the_double_range(monkeypatch):
    # |f| + |T| |T+ f| passes DBL_MAX for these f: an infinite scale read every
    # residual as 0. Each check runs on f scaled to unit size, so a T+ applied
    # 1% off is refused, and the honest series is returned
    frame = generate(GeneratorSpec("gaussian", 4, 6, 2))
    f = np.array([1e308, 1e308, 0.0, 0.0])
    c = np.array([1e308, 1e308, 0.0, 0.0, 0.0, 0.0])
    assert np.isfinite(project_signal(frame, f)).all()
    pinv_applied = reconstruct._pinv_applied

    def wrong(*args, **kwargs):
        x, part = pinv_applied(*args, **kwargs)
        return 1.01 * x, part

    monkeypatch.setattr(reconstruct, "_pinv_applied", wrong)
    with pytest.raises(NumericalError, match="'series equals P f' deviates by"):
        project_signal(frame, f)
    with pytest.raises(NumericalError, match="'T c0 = P f' deviates by"):
        min_norm_coefficients(frame, f)
    with pytest.raises(NumericalError, match="'U f0 = Q c' deviates by"):
        min_norm_preimage(frame, c)


def test_a_wrong_series_is_refused_for_coefficients_past_the_double_range(monkeypatch):
    # |c| = 2.4e308; the right series is accepted, one 1% short is not
    frame, c = generate(GeneratorSpec("gaussian", 4, 6, 2)), np.full(6, 1e308)
    project_coefficients(frame, c)
    range_part = reconstruct._range_part

    def short_series(basis, x):
        return 0.99 * range_part(basis, x)

    monkeypatch.setattr(reconstruct, "_range_part", short_series)
    with pytest.raises(NumericalError, match="'T Q c = P T c'"):
        project_coefficients(frame, c)


@pytest.mark.parametrize("entry, length", [(min_norm_coefficients, 4), (min_norm_preimage, 6)],
                         ids=["min_norm_coefficients", "min_norm_preimage"])
def test_norm_split_outside_the_double_range_raises(entry, length):
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="norm_split's inside component .* double range"):
            entry(frame, np.full(length, 1e160))


def test_residual_norm_follows_the_input_scale_below_the_squaring_range():
    # the squared entries of a 2^-600 input underflow to zero
    frame = generate(GeneratorSpec("gaussian", 4, 6, 0))
    c = np.arange(1.0, 7.0)
    base = min_norm_preimage(frame, c).residual_norm
    tiny = min_norm_preimage(frame, c * 2.0**-600).residual_norm
    assert tiny * 2.0**600 == pytest.approx(base, rel=1e-12)


RANGE_ENTRIES = {
    "frame_bounds": frame_bounds,
    "classify": classify,
    "canonical_dual": canonical_dual,
    "build_bundle": build_bundle,
    "min_norm_coefficients": lambda frame: min_norm_coefficients(frame, np.ones(4)),
    "min_norm_preimage": lambda frame: min_norm_preimage(frame, np.ones(6)),
    "project_signal": lambda frame: project_signal(frame, np.ones(4)),
    "project_coefficients": lambda frame: project_coefficients(frame, np.ones(6)),
    "pseudo_frame_operator": pseudo_frame_operator,
    "pseudo_gram": pseudo_gram,
    "restricted": restricted,
    "run_identity_suite": run_identity_suite,
}


def scaled_4x6(kind, exponent):
    t = generate(GeneratorSpec(kind, 4, 6, 2)).synthesis_matrix() * 2.0**exponent
    return FrameSequence.from_vectors(list(t.T))


@pytest.mark.parametrize("entry", RANGE_ENTRIES)
@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient"])
def test_no_bare_warning_across_the_double_range(kind, entry):
    # each call returns or raises a typed error; the suite stops at 2^320,
    # beyond which its degree-3 product rows (such as S T) overflow in matmul
    for exponent in range(-500, 501, 20):
        if entry == "run_identity_suite" and exponent > 320:
            break
        frame = scaled_4x6(kind, exponent)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                RANGE_ENTRIES[entry](frame)
            except FramekitError:
                pass


@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient"])
def test_a_wrong_frame_operator_route_is_refused_at_every_scale(kind, monkeypatch):
    # S's eigenvalues scaled by 1.01: 'S S+ = P', checked on S's factors as
    # S R_s / lambda_s = L_s, sees that 1% at every scale, since its scale
    # kappa(S) = lambda_1 / lambda_r does not move with the frame's; the dense
    # check read it only where |S|_F and |S+|_F were taken without overflow,
    # which np.linalg.norm did not do from about 2^254 (|S|_F beyond 2^512)
    factor = _FrameAnalysis.f_s.func

    def wrong(analysis):
        f_s = factor(analysis)
        return SvdFactors(f_s.left_vectors, 1.01 * f_s.singular_values, f_s.right_vectors,
                          f_s.rank)

    monkeypatch.setattr(_FrameAnalysis, "f_s", property(wrong))
    for exponent in [*range(240, 299, 2), *range(-298, -239, 2)]:
        with pytest.raises(NumericalError, match="self-check"):
            canonical_dual(scaled_4x6(kind, exponent))


def test_scaled_deviation_takes_factor_norms_without_overflow():
    # |1e200 I|_F = 1.41e200 is in range, but its squared entries are not;
    # an infinite norm made every deviation 0
    eye = 1e200 * np.eye(2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        deviation = scaled_deviation(eye, (1 + 1e-3) * eye, [eye])
    assert deviation == pytest.approx(1e-3 / np.sqrt(2.0), rel=1e-9)
    # two such norms multiply past the double range, and are divided out exactly
    assert scaled_deviation(eye, 1.5 * eye, [eye, eye]) == pytest.approx(2.5e-201, rel=1e-12)
    # a factor whose own norm is beyond the range leaves the deviation unknown
    assert scaled_deviation(eye, eye, [np.full((2, 2), 1e308)]) == np.inf


def test_a_reconstruction_product_past_the_double_range_is_named():
    # tight 4 x 6 frame (seed 2): T+ f has an entry of modulus past DBL_MAX,
    # where a bare warning escaped; solved on f scaled to unit size, T+ f is
    # returned in range, but |P f|^2 is not
    frame = generate(GeneratorSpec("tight", 4, 6, 2))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=r"norm_split's inside component .* \* 2\^1024 "
                                                 "squares beyond the double range"):
            min_norm_coefficients(frame, [1.7e308, 0.0, 0.0, 0.0])
        # on the gaussian frame scaled by 2^-40 the solutions themselves overflow
        small = scaled_4x6("gaussian", -40)
        for entry, name, length in [(min_norm_coefficients, "T+ f", 4),
                                    (min_norm_preimage, "(T+)* c", 6)]:
            with pytest.raises(NumericalError, match=re.escape(
                    f"the minimum-norm solution {name} leaves the double range")):
                entry(small, 1e300 * np.eye(length)[0])


RECONSTRUCTIONS = {
    "min_norm_coefficients": (min_norm_coefficients, 4),
    "project_signal": (project_signal, 4),
    "min_norm_preimage": (min_norm_preimage, 6),
    "project_coefficients": (project_coefficients, 6),
}


@pytest.mark.parametrize("entry, length", RECONSTRUCTIONS.values(), ids=RECONSTRUCTIONS)
@pytest.mark.parametrize("kind", ["gaussian", "tight"])
def test_reconstruction_of_inputs_near_dbl_max_lets_no_warning_escape(kind, entry, length):
    # each call solves and checks on its input scaled to unit size, where no
    # product overflows; a result scaled back past the double range raises a
    # typed error naming it
    frame = generate(GeneratorSpec(kind, 4, 6, 2))
    inputs = [value * np.eye(length)[k] for value in (1e307, 1.7e308) for k in range(length)]
    inputs += [np.full(length, 1.7e308), np.full(length, 0.85e308 * (1 + 1j))]
    for x in inputs:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                entry(frame, x)
            except FramekitError:
                pass


@pytest.mark.parametrize("name", RECONSTRUCTIONS)
@pytest.mark.parametrize("kind", ["gaussian", "tight", "rank_deficient"])
def test_no_bare_warning_for_any_input_size_across_the_double_range(kind, name):
    # every input from the smallest subnormal up to DBL_MAX is solved and
    # checked at unit size; Q c of 1.7e308 entries let a warning escape
    entry, length = RECONSTRUCTIONS[name]
    rng = np.random.default_rng(2)
    x = rng.standard_normal(length) + 1j * rng.standard_normal(length)
    x /= np.max(np.abs(np.concatenate([x.real, x.imag])))
    for exponent in range(-500, 501, 100):
        frame = scaled_4x6(kind, exponent)
        for size, y in itertools.product([5e-324, 1e-300, 1.0, 1e300, 1.7e308],
                                         [x, np.ones(length)]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                try:
                    entry(frame, size * y)
                except FramekitError:
                    pass


def test_a_projection_of_a_signal_past_the_double_range_is_answered():
    # tight 4 x 6 frame (seed 1): |f| = 3.4e308, and W* f overflowed, but P f
    # is in range; it matches the dense P applied to f scaled by 2^-1024
    frame = generate(GeneratorSpec("tight", 4, 6, 1))
    f = np.full(4, 1.7e308)
    expected = build_bundle(frame).span_projector @ (f * 2.0**-1024)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = project_signal(frame, f)
    assert np.max(np.abs(out * 2.0**-1024 - expected)) <= 1e-10 * np.max(np.abs(expected))


@pytest.mark.parametrize("n, m", [(4, 6), (6, 4), (16, 32)], ids=["4x6", "6x4", "16x32"])
@pytest.mark.parametrize("kind", GENERATOR_KINDS)
def test_the_suite_refuses_a_frame_whose_cubic_rows_can_overflow(kind, n, m):
    # 'analysis_intertwines' and 'synthesis_intertwines' form U S, G U, S T and
    # T G, of size up to sigma_1^3: from sigma_1 = 2^341 on they overflowed
    # in matmul and reported NaN deviations on sound frames. Below it the
    # suite passes, and from it on it is refused before any row runs
    target = 1e2 if kind == "ill_conditioned" else None
    t = generate(GeneratorSpec(kind, n, m, 2, condition_target=target)).synthesis_matrix()
    for k in range(300, 421, 4):
        frame = FrameSequence._from_matrix(t * 2.0**k)
        sigma_1 = _FrameAnalysis(frame).spectral_norm("T")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if sigma_1 < 2.0**341:
                report = run_identity_suite(frame)
                assert report.passed, (k, report.failures())
                assert not any(math.isnan(r.deviation) for r in report.records)
                continue
            with pytest.raises(NumericalError, match="'analysis_intertwines' and "
                               "'synthesis_intertwines'.*sigma_1 .* is at least 2\\^341"):
                run_identity_suite(frame)
