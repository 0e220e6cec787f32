"""tools/equality.py, the hash grid behind bitwise-equality claims: a slice of
its grid is reproducible within one process, and a cell hashes an output's
dtype, shape and bytes, or a refusal's type and message."""

import hashlib
import importlib.util
from pathlib import Path

import numpy as np

import framekit
from framekit import FrameSequence

TOOL = Path(__file__).resolve().parents[1] / "tools" / "equality.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("equality", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_a_slice_of_the_grid_gives_the_same_digests_twice():
    tool = load_tool()

    def run():
        framed = tool.frames(framekit, kinds=("gaussian", "tight"), shapes=((4, 6),), scales=(0,))
        return list(tool.grid(framekit, framed, tolerances={"default": {}}))

    first = run()
    assert first == run()
    assert len(first) == 2 * 2 * len(tool.ENTRIES)  # two frames, fresh and seen
    # a tight frame's polarization check answers, a gaussian one's is refused
    cells = dict(first)
    assert (cells["polarization_check tight 4x6 2^0 default fresh"]
            != cells["polarization_check gaussian 4x6 2^0 default fresh"])


def test_a_cell_hashes_an_array_or_a_refusal():
    tool = load_tool()
    zero = [("zero 2x3", lambda: FrameSequence.from_vectors([np.zeros(2)] * 3))]
    entries = {name: tool.ENTRIES[name] for name in ("canonical_dual", "pseudo_gram")}
    cells = dict(tool.grid(framekit, zero, entries=entries, tolerances={"default": {}}))
    refusal = hashlib.sha256(
        b"refusal DegenerateSpanError: a degenerate sequence has no canonical dual").hexdigest()
    # a degenerate frame's G+ is the zero matrix
    array = hashlib.sha256(b"array <c16 (3, 3) " + bytes(16 * 9)).hexdigest()
    assert cells == {
        "canonical_dual zero 2x3 default fresh": refusal,
        "canonical_dual zero 2x3 default seen": refusal,
        "pseudo_gram zero 2x3 default fresh": array,
        "pseudo_gram zero 2x3 default seen": array,
    }
