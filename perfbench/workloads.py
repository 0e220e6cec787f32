"""The three workloads: seeded inputs, the timed call, and the output oracle.

Inputs come from the benchmark's own PCG64 streams keyed by (seed, stream,
op index), never from framekit.generate, so no library change can alter a
workload, and input i does not depend on how many ops ran before it.

Each workload offers
    CYCLE            ops in one full round of its op mix
    setup()          program work done before timing; repeatable
    make_input(i)    the inputs of op i (untimed)
    call(inp)        the timed op
    check(inp, out)  (ok, margin): margin is the worst deviation/tolerance
                     over the op's checks and reference comparisons
    accuracy_inputs()  the inputs whose margins make up worst_margin
    probe_frames()   (matrix, frame, tolerance) triples for the layer probes
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys

import numpy as np

import framekit as fk
from framekit import cli

KINDS = ("gaussian", "tight", "rank_deficient", "duplicated", "ill_conditioned")
CONDITION = 1e4
# framekit's default cutoff, restated so the oracle does not read the library
RANK_REL = 1e-12
IDENTITY_ABS = 1e-10
# vectors drawn by the Rayleigh envelope check, as `framekit verify` defaults
SAMPLES = 1000

_STREAM_VERIFY, _STREAM_POOL, _STREAM_SCHEDULE, _STREAM_VECTOR, _STREAM_DOCS, _STREAM_PICK = range(1, 7)
_WARMUP = 2**32  # op indices at and above this are set-up inputs, never timed


def rng_for(seed: int, stream: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([seed, stream, index]))


def complex_gaussian(rng, shape) -> np.ndarray:
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)


def _orthonormal(rng, rows: int, cols: int) -> np.ndarray:
    q, _ = np.linalg.qr(complex_gaussian(rng, (rows, cols)))
    return q


def make_matrix(rng, kind: str, n: int, m: int) -> np.ndarray:
    """An n x m synthesis matrix (m >= n) of one of the five frame kinds."""
    r = min(n, m)
    if kind == "gaussian":
        return complex_gaussian(rng, (n, m))
    if kind == "tight":
        return rng.uniform(0.5, 2.0) * _orthonormal(rng, m, n).conj().T
    if kind == "rank_deficient":
        return complex_gaussian(rng, (n, r - 1)) @ complex_gaussian(rng, (r - 1, m)) / math.sqrt(r - 1)
    if kind == "duplicated":
        base = complex_gaussian(rng, (n, m - 1))
        return np.concatenate([base[:, :1], base], axis=1)
    if kind == "ill_conditioned":
        sigma = np.geomspace(1.0, 1.0 / CONDITION, r)
        return _orthonormal(rng, n, r) @ (sigma[:, None] * _orthonormal(rng, m, r).conj().T)
    raise ValueError(f"unknown kind {kind!r}")


def planted_rank(kind: str, n: int, m: int) -> int:
    if kind == "rank_deficient":
        return min(n, m) - 1
    if kind == "duplicated":
        return min(n, m - 1)
    return min(n, m)


def tolerance_for(kind: str) -> fk.Tolerance:
    """The tolerance `framekit verify` picks: scaled for ill_conditioned."""
    if kind == "ill_conditioned":
        return fk.Tolerance(rank_rel=min(RANK_REL, 1e-3 / CONDITION**2),
                            identity_abs=IDENTITY_ABS * CONDITION)
    return fk.Tolerance()


def frame_of(t: np.ndarray) -> fk.FrameSequence:
    return fk.FrameSequence(ambient_dim=t.shape[0], vectors=tuple(t[:, k] for k in range(t.shape[1])))


def deviation(out, ref) -> float:
    """Max-abs difference, normalized like framekit's residuals."""
    out, ref = np.asarray(out), np.asarray(ref)
    if out.shape != ref.shape:
        return math.inf
    return float(np.max(np.abs(out - ref))) / max(1.0, float(np.max(np.abs(ref))))


class Reference:
    """Independent numpy results for one synthesis matrix T."""

    def __init__(self, t: np.ndarray):
        self.t = t
        cutoff = RANK_REL * max(t.shape)
        self.pinv = np.linalg.pinv(t, rtol=cutoff)
        sv = np.linalg.svd(t, compute_uv=False)
        self.rank = int(np.count_nonzero(sv > cutoff * sv[0]))
        self.lower = float(sv[self.rank - 1] ** 2)
        self.upper = float(sv[0] ** 2)
        self.dual = self.pinv.conj().T  # column k is S+ f_k

    def min_norm_coefficients(self, f):
        return np.linalg.lstsq(self.t, f, rcond=RANK_REL * max(self.t.shape))[0]


class VerifySmall:
    """`framekit verify` in-process on a fresh small frame per op.

    Each op runs 26 SVDs and several hundred norms on tiny matrices and
    shares no work with the next, so interpreter overhead in verifier and
    matrix_core dominates.
    """

    name = "verify_small"
    SIZES = ((4, 6), (8, 12), (16, 32))
    COMBOS = tuple((kind, n, m) for n, m in SIZES for kind in KINDS)
    CYCLE = len(COMBOS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def make_input(self, i: int):
        kind, n, m = self.COMBOS[i % len(self.COMBOS)]
        t = make_matrix(rng_for(self.seed, _STREAM_VERIFY, i), kind, n, m)
        return kind, t, tolerance_for(kind)

    def setup(self) -> None:
        for j in range(len(self.COMBOS)):
            self.call(self.make_input(_WARMUP + j))

    @staticmethod
    def call(inp):
        _, t, tol = inp
        frame = frame_of(t)
        report = fk.run_identity_suite(frame, tol)
        sampling = fk.bounds_vs_sampling(frame, samples=SAMPLES, tol=tol)
        return report, sampling, fk.classify(frame, tol)

    @staticmethod
    def check(inp, out):
        kind, t, _ = inp
        report, sampling, verdict = out
        records = list(report.records) + [sampling]
        margin = max(r.deviation / r.tolerance for r in records)
        ok = (all(r.passed for r in records)
              and len(report.records) == (33 if kind == "tight" else 28)
              and verdict.span_dim == planted_rank(kind, *t.shape)
              and verdict.is_tight == (kind == "tight"))
        return ok, margin

    def accuracy_inputs(self):
        return [self.make_input(i) for i in range(2 * len(self.COMBOS))]

    def probe_frames(self):
        inputs = [self.make_input(_WARMUP + j) for j in range(len(self.COMBOS))]
        return [(t, frame_of(t), tol) for _, t, tol in inputs]


class ReconstructShared:
    """Reconstruction calls against a small pool of large frames.

    LAPACK time dominates, and every call rebuilds the whole four-SVD
    operator bundle of a frame it has already seen; this is where a
    per-frame factorization cache would show.
    """

    name = "reconstruct_shared"
    POOL = tuple((kind, n, m) for n, m in ((64, 128), (128, 256))
                 for kind in ("gaussian", "tight", "rank_deficient"))
    CALLS = ("min_norm_coefficients", "min_norm_preimage", "project_signal",
             "project_coefficients", "canonical_dual", "frame_bounds")
    PAIRS = tuple(itertools.product(range(len(POOL)), CALLS))
    CYCLE = len(PAIRS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.matrices = [make_matrix(rng_for(seed, _STREAM_POOL, j), kind, n, m)
                         for j, (kind, n, m) in enumerate(self.POOL)]
        self.refs = [Reference(t) for t in self.matrices]
        self.frames = []

    def setup(self) -> None:
        self.frames = [frame_of(t) for t in self.matrices]
        for frame, t in zip(self.frames, self.matrices):
            fk.min_norm_coefficients(frame, t[:, 0])

    def make_input(self, i: int):
        # every block of len(PAIRS) ops runs each (frame, call) pair once, in seeded order
        block, pos = divmod(i, len(self.PAIRS))
        j, name = self.PAIRS[rng_for(self.seed, _STREAM_SCHEDULE, block).permutation(len(self.PAIRS))[pos]]
        n, m = self.matrices[j].shape
        rng = rng_for(self.seed, _STREAM_VECTOR, i)
        vec = None
        if name in ("min_norm_coefficients", "project_signal"):
            vec = complex_gaussian(rng, n)
        elif name in ("min_norm_preimage", "project_coefficients"):
            vec = complex_gaussian(rng, m)
        return j, name, vec

    def call(self, inp):
        j, name, vec = inp
        fn = getattr(fk, name)
        return fn(self.frames[j]) if vec is None else fn(self.frames[j], vec)

    def check(self, inp, out):
        j, name, vec = inp
        ref, kind = self.refs[j], self.POOL[j][0]
        ok = True
        if name == "min_norm_coefficients":
            projected = ref.t @ (ref.pinv @ vec)
            devs = [deviation(out.solution, ref.min_norm_coefficients(vec)),
                    deviation(out.residual_norm, np.linalg.norm(vec - projected))]
        elif name == "min_norm_preimage":
            q_part = ref.pinv @ (ref.t @ vec)
            devs = [deviation(out.solution, ref.dual @ vec),
                    deviation(out.residual_norm, np.linalg.norm(vec - q_part))]
        elif name == "project_signal":
            devs = [deviation(out, ref.t @ (ref.pinv @ vec))]
        elif name == "project_coefficients":
            devs = [deviation(out, ref.pinv @ (ref.t @ vec))]
        elif name == "canonical_dual":
            devs = [deviation(out.synthesis_matrix(), ref.dual)]
        else:
            devs = [abs(out.lower - ref.lower) / ref.lower, abs(out.upper - ref.upper) / ref.upper]
            ok = out.tight == (kind == "tight")
        margin = max(devs) / IDENTITY_ABS
        return ok and margin <= 1.0, margin

    def accuracy_inputs(self):
        return [self.make_input(i) for i in range(len(self.PAIRS))]

    def probe_frames(self):
        return [(t, frame_of(t), fk.Tolerance()) for t in self.matrices]


class CliCold:
    """One cold `framekit` process per op, each waited on before the next.

    Interpreter and numpy import dominate; JSON parsing and rendering take
    most of the rest, so numeric gains should not show here.
    """

    name = "cli_cold"
    SHAPE = (32, 64)
    DOCS = 4
    COMMANDS = ("analyze", "dual", "reconstruct", "verify")
    CYCLE = len(COMMANDS)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.paths, self.refs, self.signals = [], [], []
        for d in range(self.DOCS):
            rng = rng_for(seed, _STREAM_DOCS, d)
            t = make_matrix(rng, "gaussian", *self.SHAPE)
            f = complex_gaussian(rng, self.SHAPE[0])
            path = os.path.join(workdir, f"frame{d}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"ambient_dim": self.SHAPE[0],
                           "vectors": [_pairs(t[:, k]) for k in range(t.shape[1])],
                           "signal": _pairs(f)}, handle)
            self.paths.append(path)
            self.refs.append(Reference(t))
            self.signals.append(f)
        self.expected = {}
        self.margins = {}

    def make_input(self, i: int) -> tuple:
        command = self.COMMANDS[i % len(self.COMMANDS)]
        rng = rng_for(self.seed, _STREAM_PICK, i)
        if command == "verify":
            return ("verify", "--kind", KINDS[rng.integers(len(KINDS))], "--n", "4", "--m", "6",
                    "--seed", str(self.seed), "--format", "structured")
        return (command, self.paths[rng.integers(self.DOCS)], "--format", "structured")

    def all_argv(self) -> list:
        doc_cmds = [(c, p, "--format", "structured") for c in self.COMMANDS[:-1] for p in self.paths]
        verify = [("verify", "--kind", k, "--n", "4", "--m", "6", "--seed", str(self.seed),
                   "--format", "structured") for k in KINDS]
        return doc_cmds + verify

    def setup(self) -> None:
        self.expected = {}
        for argv in self.all_argv():
            code, text = run_main(argv)
            if code != 0:
                raise RuntimeError(f"in-process framekit {' '.join(argv)} exited {code}")
            self.expected[argv] = text.encode("utf-8")
        # one cold process, so the first timed op does not pay for a cold page cache
        self.call(self.make_input(0))

    @staticmethod
    def call(argv):
        return subprocess.run([sys.executable, "-m", "framekit.cli", *argv],
                              capture_output=True, timeout=120, check=False)

    @staticmethod
    def call_in_process(argv):
        """The same op through cli.main in this process, for the traced run."""
        code, text = run_main(argv)
        return subprocess.CompletedProcess(argv, code, stdout=text.encode("utf-8"))

    def check(self, argv, out):
        # equal to the in-process bytes, hence to every earlier repeat as well
        ok = out.returncode == 0 and out.stdout == self.expected[argv]
        if argv not in self.margins:
            self.margins[argv] = self._oracle(argv, json.loads(self.expected[argv]))
        ok_oracle, margin = self.margins[argv]
        return ok and ok_oracle, margin

    def _oracle(self, argv, doc):
        command = argv[0]
        if command == "verify":
            return doc["passed"], max(c["deviation"] / c["tolerance"] for c in doc["checks"])
        d = self.paths.index(argv[1])
        ref = self.refs[d]
        if command == "analyze":
            devs = [abs(doc["bounds"]["lower"] - ref.lower) / ref.lower,
                    abs(doc["bounds"]["upper"] - ref.upper) / ref.upper]
            ok = doc["span_dim"] == ref.rank
        elif command == "dual":
            devs = [deviation(_matrix(doc["vectors"]), ref.dual)]
            ok = True
        else:
            devs = [deviation(_vector(doc["coefficients"]),
                              ref.min_norm_coefficients(self.signals[d]))]
            ok = doc["mode"] == "signal"
        margin = max(devs) / IDENTITY_ABS
        return ok and margin <= 1.0, margin

    def accuracy_inputs(self):
        return self.all_argv()

    def probe_frames(self):
        return [(r.t, frame_of(r.t), fk.Tolerance()) for r in self.refs]


def run_main(argv) -> tuple:
    """framekit.cli.main in this process; returns (exit code, stdout text)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()


def _pairs(v) -> list:
    return [[float(z.real), float(z.imag)] for z in v]


def _vector(pairs) -> np.ndarray:
    return np.array([complex(re, im) for re, im in pairs])


def _matrix(columns) -> np.ndarray:
    return np.stack([_vector(c) for c in columns], axis=1)


WORKLOADS = {w.name: w for w in (VerifySmall, ReconstructShared, CliCold)}
