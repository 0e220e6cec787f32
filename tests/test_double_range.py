"""Bounds that leave the double range raise a typed error, never inf or 0.

The optimal bounds are the squared extreme singular values of T. For a
frame scaled by 2^-700 they underflow to 0, and for one scaled by 2^560
they overflow to inf; both scales are exact, so the singular values
themselves stay representable. Either way the caller gets NumericalError
(exit 1 from the CLI) naming sigma_max and sigma_min. A pseudoinverse
whose largest entry 1/sigma_r would overflow raises NumericalError naming
sigma_r before anything is divided; so does a tight frame's P/A or Q/A
when 1/A overflows. A frame operator S or gram core R1 R1* whose entries
overflow raises NumericalError naming it, without an overflow warning; so
do the restricted frame operator W*SW and its inverse.

Reconstruction takes its input's norms without squaring entries, so its
residual ceilings stay finite for entries beyond 1.3e154, and a norm_split
component whose square leaves the double range raises NumericalError too.
"""

import json
import re
import warnings

import numpy as np
import pytest

from framekit import (
    FrameSequence,
    GeneratorSpec,
    NumericalError,
    classify,
    frame_bounds,
    generate,
    build_bundle,
    canonical_dual,
    min_norm_coefficients,
    min_norm_preimage,
    pinv,
    project_coefficients,
    pseudo_frame_operator,
    pseudo_gram,
    restricted,
    svd,
)
from framekit.cli import EXIT_VERIFICATION_FAILED, main
from framekit.frame_ops import _FrameAnalysis
from framekit.reconstruct import _limit

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


@pytest.mark.parametrize("exponent", [515, 520, 525, 530, 535])
@pytest.mark.parametrize("entry", [
    build_bundle, canonical_dual, pseudo_frame_operator, pseudo_gram,
    lambda frame: project_coefficients(frame, np.ones(frame.size)),
], ids=["build_bundle", "canonical_dual", "pseudo_frame_operator", "pseudo_gram",
        "project_coefficients"])
def test_pseudoinverse_outside_the_double_range_raises(entry, exponent):
    # T's singular values are near 2^-exponent, so those of S and G square
    # to about 2^-1040 or less, and 1/sigma_r overflows
    frame = scaled_frame(2.0**-exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="leaves the double range: 1/sigma_r overflows"):
            entry(frame)


def scaled(kind, seed, exponent):
    n, m = (4, 6) if kind == "tight" else (3, 5)
    t = generate(GeneratorSpec(kind, n, m, seed)).synthesis_matrix() * 2.0**exponent
    return FrameSequence.from_vectors(list(t.T))


@pytest.mark.parametrize("entry", [pseudo_frame_operator, pseudo_gram])
def test_tight_fast_path_outside_the_double_range_raises(entry):
    # A is about 1e-313, so P/A and Q/A would hold inf entries
    frame = scaled("tight", 2, -520)
    assert classify(frame).is_tight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match="1/A overflows for the lower bound A 3.598e-314"):
            entry(frame)


@pytest.mark.parametrize("entry, operator", [
    (build_bundle, "frame operator S"),
    (canonical_dual, "frame operator S"),
    (lambda frame: project_coefficients(frame, np.ones(frame.size)), "gram matrix G's core"),
], ids=["build_bundle", "canonical_dual", "project_coefficients"])
def test_operators_outside_the_double_range_raise(entry, operator):
    # sigma_max is about 1e157, so S = T U and G's core R1 R1* overflow
    frame = scaled("gaussian", 2, 520)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError, match=f"the {operator}.* leaves the double range"):
            entry(frame)


@pytest.mark.parametrize("exponent, operator", [
    (520, "restricted frame operator W*SW"),
    (540, "restricted frame operator W*SW"),
    (-520, "inverse of W*SW"),  # W*SW's entries near 2^-1040 are subnormal
])
def test_restricted_operators_outside_the_double_range_raise(exponent, operator):
    frame = scaled("gaussian", 2, exponent)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericalError,
                           match=re.escape(f"the {operator} leaves the double range")):
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
    # |v| = 2e200; squaring the entries overflowed, which made the ceiling
    # inf and every result check vacuous
    analysis = _FrameAnalysis(generate(GeneratorSpec("gaussian", 4, 6, 0)))
    assert _limit(analysis, np.full(4, 1e200)) == pytest.approx(1e-10 * 2e200, rel=1e-12)


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
