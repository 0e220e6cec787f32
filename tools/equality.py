"""Hash grid of framekit's public results, for claims that a change keeps
them bit for bit.

    python tools/equality.py                print one "cell<TAB>sha256" line a cell
    python tools/equality.py --src DIR      the same for the framekit package in DIR
    python tools/equality.py --against REV  compare this tree's grid with REV's
    python tools/equality.py --against REV --expected FILE
                                            the same, allowing the cells FILE lists

The grid is every public entry point (ENTRIES) x the five generator kinds
(ill_conditioned at condition target 1e4, seed 0) x SHAPES x the frame
scales SCALES x TOLERANCES, then the benchmark's reconstruct_shared op mix
(POOL_ENTRIES) on its frame kinds at 64 x 128 and unit scale (POOL) x
TOLERANCES, each first on a frame built afresh for the call, then on one
shared frame that every entry has already read under every tolerance. It
runs in one process. A cell hashes what the call returns:
each array as its dtype, shape and bytes, and each dataclass, dict, tuple
and scalar through its fields, items, entries and repr. A call that raises
hashes its refusal's type and message instead.

--against REV checks REV out into a temporary git worktree, runs this file's
grid on this tree's src and on REV's src, each in its own process under
this interpreter with OPENBLAS_NUM_THREADS=1, and lists the cells whose
digests differ. It exits 1 if any does that --expected FILE does not list
(one cell a line; blank lines and lines starting with # are skipped). Both
sides run on one machine, so BLAS and CPU effects cancel, and no digest is
committed. tools/expected_changes.txt lists the cells the change on top of
the merge base moves, and CI compares a pull request with its merge base
under it.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import os
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np

REPO = Path(__file__).resolve().parents[1]

SHAPES = ((4, 6), (6, 4), (16, 32))
SCALES = (-300, 0, 300)
TOLERANCES = {
    "default": {},
    "rank_rel=1e-3": {"rank_rel": 1e-3},
    "identity_abs=1e-14": {"identity_abs": 1e-14},
}
# the frames and calls of perfbench's reconstruct_shared workload, at its
# smaller shape: the grid holds the warm path's bits where its speed is measured
POOL = {"kinds": ("gaussian", "tight", "rank_deficient"), "shapes": ((64, 128),), "scales": (0,)}
POOL_ENTRIES = ("min_norm_coefficients", "min_norm_preimage", "project_signal",
                "project_coefficients", "canonical_dual", "frame_bounds")


def _vector(length: int) -> np.ndarray:
    """A fixed complex input of the given length."""
    rng = np.random.default_rng(length)
    return rng.standard_normal(length) + 1j * rng.standard_normal(length)


# every public call on a frame or its matrix, as (framekit, frame, tolerance)
ENTRIES = {
    "build_bundle": lambda fk, f, tol: fk.build_bundle(f, tol),
    "frame_bounds": lambda fk, f, tol: fk.frame_bounds(f, tol),
    "classify": lambda fk, f, tol: fk.classify(f, tol),
    "canonical_dual": lambda fk, f, tol: fk.canonical_dual(f, tol),
    "restricted": lambda fk, f, tol: fk.restricted(f, tol),
    "pseudo_frame_operator": lambda fk, f, tol: fk.pseudo_frame_operator(f, tol),
    "pseudo_gram": lambda fk, f, tol: fk.pseudo_gram(f, tol),
    "min_norm_coefficients":
        lambda fk, f, tol: fk.min_norm_coefficients(f, _vector(f.ambient_dim), tol),
    "min_norm_preimage": lambda fk, f, tol: fk.min_norm_preimage(f, _vector(f.size), tol),
    "project_signal": lambda fk, f, tol: fk.project_signal(f, _vector(f.ambient_dim), tol),
    "project_coefficients":
        lambda fk, f, tol: fk.project_coefficients(f, _vector(f.size), tol),
    "run_identity_suite": lambda fk, f, tol: fk.run_identity_suite(f, tol),
    "polarization_check": lambda fk, f, tol: fk.polarization_check(f, 20, tol),
    "bounds_vs_sampling": lambda fk, f, tol: fk.bounds_vs_sampling(f, 200, tol),
    "svd": lambda fk, f, tol: fk.svd(f.synthesis_matrix(), tol),
    "pinv": lambda fk, f, tol: fk.pinv(f.synthesis_matrix(), tol),
    "range_projector": lambda fk, f, tol: fk.range_projector(f.synthesis_matrix(), tol),
    "numerical_rank": lambda fk, f, tol: fk.numerical_rank(f.synthesis_matrix(), tol),
    "op_norm": lambda fk, f, tol: fk.op_norm(f.synthesis_matrix()),
    "scaled_deviation": lambda fk, f, tol: fk.scaled_deviation(
        f.synthesis_matrix(), f.synthesis_matrix() * (1 + 2.0**-40), (f.synthesis_matrix(),)),
}


def _feed(h, value) -> None:
    if isinstance(value, np.ndarray):
        h.update(f"array {value.dtype.str} {value.shape} ".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif dataclasses.is_dataclass(value):
        h.update(f"{type(value).__name__} ".encode())
        for field in dataclasses.fields(value):
            _feed(h, field.name)
            _feed(h, getattr(value, field.name))
    elif isinstance(value, dict):
        h.update(f"dict {len(value)} ".encode())
        for key in sorted(value):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(f"{type(value).__name__} {len(value)} ".encode())
        for item in value:
            _feed(h, item)
    else:
        h.update(f"{type(value).__name__} {value!r} ".encode())


def digest(call) -> str:
    """sha256 of what call() returns, or of its refusal's type and message."""
    h = hashlib.sha256()
    try:
        value = call()
    except Exception as exc:  # every refusal is a cell's outcome, not a failure of the grid
        h.update(f"refusal {type(exc).__name__}: {exc}".encode())
    else:
        _feed(h, value)
    return h.hexdigest()


def frames(fk, kinds=None, shapes=SHAPES, scales=SCALES):
    """(label, make) for each frame of the grid; make() builds it afresh."""
    for kind in kinds or fk.GENERATOR_KINDS:
        for n, m in shapes:
            target = 1e4 if kind == "ill_conditioned" else None
            t = fk.generate(fk.GeneratorSpec(kind, n, m, 0, target)).synthesis_matrix()
            for k in scales:
                yield f"{kind} {n}x{m} 2^{k}", partial(_frame, fk, t * 2.0**k)


def _frame(fk, matrix: np.ndarray):
    return fk.FrameSequence.from_vectors(list(matrix.T))


def grid(fk, framed, entries=ENTRIES, tolerances=TOLERANCES):
    """(cell, digest) for each frame of framed, entry and tolerance: a fresh
    frame for each call, then one shared frame, read once by every call
    before its cells are taken."""
    tols = {name: fk.Tolerance(**fields) for name, fields in tolerances.items()}
    cells = [(entry, tol) for entry in entries for tol in tols]
    for label, make in framed:
        for entry, tol in cells:
            yield f"{entry} {label} {tol} fresh", digest(
                partial(entries[entry], fk, make(), tols[tol]))
        seen = make()
        calls = {f"{entry} {label} {tol} seen": partial(entries[entry], fk, seen, tols[tol])
                 for entry, tol in cells}
        for call in calls.values():
            digest(call)
        for cell, call in calls.items():
            yield cell, digest(call)


def cells(fk):
    """(cell, digest) for the whole grid: every entry on frames(), then the
    pool's calls on the pool's frames."""
    yield from grid(fk, frames(fk))
    yield from grid(fk, frames(fk, **POOL), entries={name: ENTRIES[name] for name in POOL_ENTRIES})


def _grid_of(src: Path) -> dict:
    """The grid of the framekit package in src, run by this file in a new process."""
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1"}
    done = subprocess.run([sys.executable, __file__, "--src", str(src)], env=env,
                          capture_output=True, text=True)
    if done.returncode != 0:
        sys.exit(f"the grid of {src} failed:\n{done.stderr}")
    return dict(line.split("\t") for line in done.stdout.splitlines())


def listed(path: Path) -> frozenset:
    """The cells a file lists, one a line, skipping blank lines and # comments."""
    lines = (line.strip() for line in path.read_text(encoding="utf-8").splitlines())
    return frozenset(line for line in lines if line and not line.startswith("#"))


def compare(ours: dict, theirs: dict, rev: str, expected: frozenset = frozenset()) -> int:
    """Print the cells whose digests differ between two grids, each marked
    expected or unexpected; 1 if any differing cell is not in expected."""
    cells = ours.keys() | theirs.keys()
    differing = sorted(cell for cell in cells if ours.get(cell) != theirs.get(cell))
    unexpected = [cell for cell in differing if cell not in expected]
    for cell in differing:
        print(cell, "expected" if cell in expected else "unexpected", sep="\t")
    print(f"{len(differing)} of {len(cells)} cells differ from {rev}, "
          f"{len(unexpected)} of them unexpected")
    unmoved = expected - set(differing)
    if unmoved:
        print(f"{len(unmoved)} expected cells do not differ")
    return 1 if unexpected else 0


def against(rev: str, expected: frozenset = frozenset()) -> int:
    """compare this tree's grid with rev's, checked out into a temporary worktree."""
    with tempfile.TemporaryDirectory(prefix="framekit-equality-") as tmp:
        tree = Path(tmp) / "tree"
        subprocess.run(["git", "-C", str(REPO), "worktree", "add", "--detach", "--quiet",
                        str(tree), rev], check=True)
        try:
            ours, theirs = _grid_of(REPO / "src"), _grid_of(tree / "src")
        finally:
            subprocess.run(["git", "-C", str(REPO), "worktree", "remove", "--force", str(tree)],
                           check=True)
    return compare(ours, theirs, rev, expected)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", type=Path, default=REPO / "src",
                        help="directory holding the framekit package (default: this tree's src)")
    parser.add_argument("--against", metavar="REV",
                        help="git revision to compare this tree's grid with")
    parser.add_argument("--expected", type=Path, metavar="FILE",
                        help="with --against: cells, one a line, that may differ")
    args = parser.parse_args(argv)
    if args.expected and not args.against:
        parser.error("--expected needs --against")
    if args.against:
        return against(args.against, listed(args.expected) if args.expected else frozenset())
    sys.path.insert(0, str(args.src.resolve()))
    import framekit
    if args.src.resolve() not in Path(framekit.__file__).resolve().parents:
        sys.exit(f"framekit was imported from {framekit.__file__}, not from {args.src}")
    for cell, value in cells(framekit):
        print(cell, value, sep="\t")
    return 0


if __name__ == "__main__":
    sys.exit(main())
