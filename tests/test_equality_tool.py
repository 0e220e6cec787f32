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


def test_every_seen_cell_of_the_whole_grid_equals_its_fresh_one():
    # a frame that every entry has read under every tolerance answers, or
    # refuses, with the bits a frame built afresh for the call does
    tool = load_tool()
    fresh, seen = {}, {}
    for cell, digest in tool.cells(framekit):
        key, state = cell.rsplit(" ", 1)
        (fresh if state == "fresh" else seen)[key] = digest
    assert len(fresh) == len(seen) == 2754
    assert [key for key in fresh if fresh[key] != seen[key]] == []


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


def test_compare_fails_only_on_a_differing_cell_not_listed(tmp_path, capsys):
    tool = load_tool()
    expected = tmp_path / "expected.txt"
    expected.write_text("# a comment\n\nsvd a\nsvd c\n", encoding="utf-8")
    cells = tool.listed(expected)
    assert cells == {"svd a", "svd c"}
    ours, theirs = {"svd a": "1", "svd b": "2", "svd c": "3"}, {"svd a": "0", "svd b": "2",
                                                                 "svd c": "3"}
    # 'svd a' differs and is listed; 'svd c' is listed and does not differ
    assert tool.compare(ours, theirs, "base", cells) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["svd a\texpected", "1 of 3 cells differ from base, 0 of them unexpected",
                   "1 expected cells do not differ"]
    # a cell only one grid has differs too; with nothing listed, every cell is unexpected
    assert tool.compare({**ours, "svd d": "4"}, theirs, "base", cells) == 1
    assert "svd d\tunexpected" in capsys.readouterr().out.splitlines()
    assert tool.compare(ours, theirs, "base") == 1


def test_the_committed_expected_changes_name_cells_of_the_grid():
    # every line of tools/expected_changes.txt names a cell the grid has,
    # the pool's calls on the pool's frames among them
    tool = load_tool()
    grids = ((tool.ENTRIES, tool.frames(framekit)),
             (tool.POOL_ENTRIES, tool.frames(framekit, **tool.POOL)))
    named = {(entry, label) for entries, framed in grids for label, _ in framed
             for entry in entries}
    tolerances = set(tool.TOLERANCES)
    for cell in tool.listed(TOOL.parent / "expected_changes.txt"):
        entry, rest = cell.split(" ", 1)
        label, tol, state = rest.rsplit(" ", 2)
        assert (entry, label) in named and tol in tolerances, cell
        assert state in ("fresh", "seen"), cell
