"""Per-layer figures for the traced run, from direct calls into each module.

Every public function is timed on its own, on the workload's frames, so a
layer's self time is its call minus the child calls it makes, each timed
directly on the same input (see stats.self_time). Figures are the mean over
the probe frames of each frame's median, i.e. per call over the workload's
frame mix.
"""

from __future__ import annotations

import subprocess
import sys
import time
import traceback
from collections import Counter, defaultdict

import numpy as np

import framekit as fk
from stats import median, self_time
from workloads import SAMPLES, CliCold, frame_of, run_main, tolerance_for

RECONSTRUCT_ENTRIES = ("min_norm_coefficients", "min_norm_preimage",
                       "project_signal", "project_coefficients")
# public entry points whose numpy.linalg.svd calls are counted one call at a time
COUNTED_ENTRIES = ("build_bundle", "classify", "frame_bounds", "canonical_dual",
                   "min_norm_coefficients", "run_identity_suite", "bounds_vs_sampling")
IMPORT_REPEATS = 5

_IMPORT_TIMER = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import numpy\n"
    "t1 = time.perf_counter()\n"
    "import framekit, framekit.cli\n"
    "t2 = time.perf_counter()\n"
    "print((t1 - t0) * 1e3, (t2 - t1) * 1e3)\n"
)


class LayerProbe:
    """Times direct calls and counts the calls that raised, per layer."""

    def __init__(self, tracer):
        self.tracer = tracer
        self.ms = defaultdict(lambda: defaultdict(list))  # key -> frame index -> samples
        self.failed = Counter()
        self.svd_calls = defaultdict(list)  # entry -> svd calls per single call

    def timed(self, layer: str, key: str, j: int, fn, *args):
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception:  # a failing layer is reported, and the probe goes on
            traceback.print_exc(file=sys.stderr)
            self.failed[layer] += 1
            return None
        self.ms[key][j].append((time.perf_counter() - t0) * 1e3)
        return out

    def count_svds(self, entry: str, fn, *args) -> None:
        before = self.tracer.calls["svd"]
        self.tracer.recording = True
        try:
            fn(*args)
        except Exception:
            traceback.print_exc(file=sys.stderr)
        finally:
            self.tracer.recording = False
        self.svd_calls[entry].append(self.tracer.calls["svd"] - before)

    def mean_ms(self, key: str) -> float:
        per_frame = self.ms[key]
        return float(np.mean([median(v) for v in per_frame.values()]))

    def mean_self_ms(self, key: str, children) -> float:
        per_frame = self.ms[key]
        return float(np.mean([self_time(per_frame[j], [self.ms[c][j] for c in children])
                              for j in per_frame]))

    # --- numeric layers -------------------------------------------------------

    def count_entries(self, frame, tol) -> None:
        t = frame.synthesis_matrix()
        self.count_svds("build_bundle", fk.build_bundle, frame, tol)
        self.count_svds("classify", fk.classify, frame, tol)
        self.count_svds("frame_bounds", fk.frame_bounds, frame, tol)
        self.count_svds("canonical_dual", fk.canonical_dual, frame, tol)
        self.count_svds("min_norm_coefficients", fk.min_norm_coefficients, frame, t[:, 0], tol)
        self.count_svds("run_identity_suite", fk.run_identity_suite, frame, tol)
        self.count_svds("bounds_vs_sampling", fk.bounds_vs_sampling, frame, SAMPLES, tol)

    def numeric_round(self, j: int, t: np.ndarray, frame, tol) -> None:
        n, m = t.shape
        u = t.conj().T
        self.timed("matrix_core", "svd", j, fk.svd, t, tol)
        self.timed("linalg", "raw_svd", j, np.linalg.svd, t, False)
        self.timed("matrix_core", "svd_u", j, fk.svd, u, tol)
        self.timed("matrix_core", "svd_s", j, fk.svd, t @ u, tol)
        self.timed("matrix_core", "svd_g", j, fk.svd, u @ t, tol)

        bundle = self.timed("frame_ops", "build_bundle", j, fk.build_bundle, frame, tol)
        self.timed("frame_ops", "classify", j, fk.classify, frame, tol)
        self.timed("frame_ops", "frame_bounds", j, fk.frame_bounds, frame, tol)
        dual = self.timed("frame_ops", "canonical_dual", j, fk.canonical_dual, frame, tol)

        signal = np.ones(n, dtype=complex)
        coeffs = np.ones(m, dtype=complex)
        for entry in RECONSTRUCT_ENTRIES:
            vec = signal if entry in ("min_norm_coefficients", "project_signal") else coeffs
            self.timed("reconstruct", entry, j, getattr(fk, entry), frame, vec, tol)

        self.timed("verifier", "run_identity_suite", j, fk.run_identity_suite, frame, tol)
        if dual is not None:
            self.timed("frame_ops", "dual_build_bundle", j, fk.build_bundle, dual, tol)
            self.timed("frame_ops", "dual_frame_bounds", j, fk.frame_bounds, dual, tol)
            self.timed("frame_ops", "dual_canonical_dual", j, fk.canonical_dual, dual, tol)
        if bundle is not None:
            self.timed("matrix_core", "pinv_analysis", j, fk.pinv, bundle.analysis, tol)
        self.timed("verifier", "bounds_vs_sampling", j, fk.bounds_vs_sampling, frame, SAMPLES, tol)

    def numeric_metrics(self) -> dict:
        svd_ratio = float(np.mean([median(self.ms["svd"][j]) / median(self.ms["raw_svd"][j])
                                   for j in self.ms["svd"]]))
        reconstruct_self = float(np.mean([self.mean_self_ms(e, ["build_bundle"])
                                          for e in RECONSTRUCT_ENTRIES]))
        suite_context = ["build_bundle", "frame_bounds", "classify", "canonical_dual",
                         "dual_build_bundle", "dual_frame_bounds", "dual_canonical_dual",
                         "pinv_analysis"]
        out = {
            "matrix_core.svd_ms": (self.mean_ms("svd"), "ms"),
            "matrix_core.svd_overhead_ratio": (svd_ratio, "ratio"),
            "frame_ops.build_bundle_ms": (self.mean_ms("build_bundle"), "ms"),
            "frame_ops.bundle_selfcheck_ms": (
                self.mean_self_ms("build_bundle", ["svd", "svd_u", "svd_s", "svd_g"]), "ms"),
            "frame_ops.classify_ms": (self.mean_ms("classify"), "ms"),
            "frame_ops.frame_bounds_ms": (self.mean_ms("frame_bounds"), "ms"),
            "frame_ops.canonical_dual_ms": (self.mean_ms("canonical_dual"), "ms"),
        }
        for entry in RECONSTRUCT_ENTRIES:
            out[f"reconstruct.{entry}_ms"] = (self.mean_ms(entry), "ms")
        out["reconstruct.self_ms"] = (reconstruct_self, "ms")
        out["verifier.run_identity_suite_ms"] = (self.mean_ms("run_identity_suite"), "ms")
        out["verifier.checks_self_ms"] = (self.mean_self_ms("run_identity_suite", suite_context), "ms")
        out["verifier.bounds_vs_sampling_ms"] = (self.mean_ms("bounds_vs_sampling"), "ms")
        for entry in COUNTED_ENTRIES:
            out[f"linalg.svd_calls.{entry}"] = (float(np.mean(self.svd_calls[entry])), "count")
        return out

    # --- cli ------------------------------------------------------------------

    def import_times(self, cwd: str) -> tuple:
        numpy_ms, framekit_ms = [], []
        for _ in range(IMPORT_REPEATS):
            proc = subprocess.run([sys.executable, "-c", _IMPORT_TIMER], cwd=cwd,
                                  capture_output=True, text=True, timeout=60, check=False)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                self.failed["cli"] += 1
                continue
            a, b = proc.stdout.split()
            numpy_ms.append(float(a))
            framekit_ms.append(float(b))
        return numpy_ms, framekit_ms

    def cli_round(self, docs: CliCold, commands: dict) -> None:
        """One in-process cli.main per command, then its library calls alone."""
        for j, (command, argv) in enumerate(commands.items()):
            out = self.timed("cli", "main", j, run_main, argv)
            if out is not None and out[0] != 0:
                self.failed["cli"] += 1
            if command == "verify":
                kind = argv[argv.index("--kind") + 1]
                tol = tolerance_for(kind)
                spec = fk.GeneratorSpec(kind=kind, n=4, m=6, seed=int(argv[argv.index("--seed") + 1]),
                                        condition_target=1e4 if kind == "ill_conditioned" else None)
                frame = self.timed("verifier", "cli_generate", j, fk.generate, spec)
                if frame is None:
                    continue
                self.timed("verifier", "cli_suite", j, fk.run_identity_suite, frame, tol)
                self.timed("verifier", "cli_sampling", j, fk.bounds_vs_sampling, frame, SAMPLES, tol)
                self.timed("frame_ops", "cli_classify", j, fk.classify, frame, tol)
                continue
            d = docs.paths.index(argv[1])
            frame, tol = frame_of(docs.refs[d].t), fk.Tolerance()
            if command == "analyze":
                self.timed("frame_ops", "cli_classify", j, fk.classify, frame, tol)
                self.timed("frame_ops", "cli_frame_bounds", j, fk.frame_bounds, frame, tol)
            elif command == "dual":
                self.timed("frame_ops", "cli_canonical_dual", j, fk.canonical_dual, frame, tol)
            else:
                self.timed("reconstruct", "cli_min_norm", j, fk.min_norm_coefficients,
                           frame, docs.signals[d], tol)

    def cli_metrics(self, numpy_ms, framekit_ms) -> dict:
        lib_keys = ("cli_generate", "cli_suite", "cli_sampling", "cli_classify",
                    "cli_frame_bounds", "cli_canonical_dual", "cli_min_norm")
        io = [self_time(samples, [self.ms[k][j] for k in lib_keys if j in self.ms[k]])
              for j, samples in self.ms["main"].items()]
        return {
            "cli.numpy_import_ms": (median(numpy_ms), "ms"),
            "cli.framekit_import_ms": (median(framekit_ms), "ms"),
            "cli.main_warm_ms": (self.mean_ms("main"), "ms"),
            "cli.io_ms": (float(np.mean(io)), "ms"),
        }


def cli_commands(docs: CliCold) -> dict:
    """One invocation of each cli_cold command: the command mix of that workload."""
    commands = {}
    i = 0
    while len(commands) < len(CliCold.COMMANDS):
        argv = docs.make_input(i)
        commands.setdefault(argv[0], argv)
        i += 1
    return commands


def probe_layers(tracer, workload, seed: int, workdir: str, seconds: float) -> tuple:
    """(metrics, failed calls per layer, rounds): every per-layer figure but the per-op
    linalg counts, from at least one full round of probes."""
    probe = LayerProbe(tracer)
    frames = workload.probe_frames()
    for _, frame, tol in frames:
        probe.count_entries(frame, tol)

    docs = workload if isinstance(workload, CliCold) else CliCold(seed, workdir)
    commands = cli_commands(docs)
    numpy_ms, framekit_ms = probe.import_times(workdir)

    deadline = time.perf_counter() + seconds
    rounds = 0
    while rounds < 1 or time.perf_counter() < deadline:
        for j, (t, frame, tol) in enumerate(frames):
            probe.numeric_round(j, t, frame, tol)
        probe.cli_round(docs, commands)
        rounds += 1

    metrics = probe.numeric_metrics()
    metrics.update(probe.cli_metrics(numpy_ms, framekit_ms))
    return metrics, probe.failed, rounds

