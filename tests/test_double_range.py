"""Bounds that leave the double range raise a typed error, never inf or 0.

The optimal bounds are the squared extreme singular values of T. For a
frame scaled by 2^-700 they underflow to 0, and for one scaled by 2^560
they overflow to inf; both scales are exact, so the singular values
themselves stay representable. Either way the caller gets NumericalError
(exit 1 from the CLI) naming sigma_max and sigma_min.

Reconstruction takes its input's norms without squaring entries, so its
residual ceilings stay finite for entries beyond 1.3e154, and a norm_split
component whose square leaves the double range raises NumericalError too.
"""

import json
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
    min_norm_coefficients,
    min_norm_preimage,
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
