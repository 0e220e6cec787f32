"""Bounds that leave the double range raise a typed error, never inf or 0.

The optimal bounds are the squared extreme singular values of T. For a
frame scaled by 2^-700 they underflow to 0, and for one scaled by 2^560
they overflow to inf; both scales are exact, so the singular values
themselves stay representable. Either way the caller gets NumericalError
(exit 1 from the CLI) naming sigma_max and sigma_min.
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
    svd,
)
from framekit.cli import EXIT_VERIFICATION_FAILED, main

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
