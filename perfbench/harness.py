"""Runs one workload in this process and prints its metrics.

Started by run.py, which pins BLAS to one thread and puts the checkout's
src/ on the path. The last line of standard output is the result object;
the lines before it name every metric with its unit and record the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback

from layers import probe_layers
from machine import calibrate, machine_record
from stats import median, min_samples, percentile, windowed_rate
from tracing import LinalgTracer
from workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
P90 = 0.9
# every timed run completes this many ops, so p90 has ten samples beyond it
MIN_OPS = min_samples(P90)
# worst_margin is measured on the accuracy set of this seed, the same in every
# run: the maximum of rounding errors over seeded inputs spreads too widely
# between seeds to hold a bound, and on fixed inputs any rise is a real one
ACCURACY_SEED = 0
SETUP_REPEATS = 5
HARD_STOP_S = 150.0  # op loops stop this long after start, under the 180 s a run may take
_STARTED = time.perf_counter()
TRACE_LOOP_SHARE = 0.25  # of --seconds, for each of the untraced and traced loops
# End-to-end times are reported at a nominal host speed: each is scaled by
# CALIBRATION_REF_MS / the time of the calibration kernel measured right after
# its op cycle. On a shared 2-core Xeon VM, interpreter-bound code ran at two
# speeds some 40% apart, switching within a minute; scaled times follow the
# program, raw ones (kept on the record line) follow the host.
CALIBRATION_REF_MS = 2.5


class OpLoop:
    """Closed loop with one caller: op i+1 starts when op i has returned."""

    def __init__(self):
        self.times = []
        self.host_ms = []  # calibration time after each whole cycle of the op mix
        self.failed = 0
        self.margins = []  # deviation/tolerance per op

    def run(self, workload, call, seconds, min_ops, tracer=None):
        deadline = time.perf_counter() + seconds
        cycle = workload.CYCLE
        i = 0
        while ((time.perf_counter() < deadline or i < min_ops or i % cycle)
               and time.perf_counter() - _STARTED < HARD_STOP_S):
            inp = workload.make_input(i)
            if tracer is not None:
                tracer.recording = True
            t0 = time.perf_counter()
            try:
                out = call(inp)
            except Exception:  # a raising op is a failed op; the loop goes on
                traceback.print_exc(file=sys.stderr)
                out = None
            finally:
                self.times.append(time.perf_counter() - t0)
                if tracer is not None:
                    tracer.recording = False
            ok, margin = (False, 0.0) if out is None else workload.check(inp, out)
            if not ok:
                self.failed += 1
            self.margins.append(margin)
            i += 1
            if i % cycle == 0:
                self.host_ms.append(calibrate())
        return self

    def scaled_times(self, cycle: int) -> list:
        """Op times at the nominal host speed, over the whole cycles completed."""
        return [t * CALIBRATION_REF_MS / self.host_ms[k // cycle]
                for k, t in enumerate(self.times[:len(self.host_ms) * cycle])]


def accuracy(name: str, workdir: str) -> tuple:
    """(worst deviation/tolerance, ops, failed ops) over the fixed accuracy set."""
    workload = WORKLOADS[name](ACCURACY_SEED, tempfile.mkdtemp(dir=workdir))
    workload.setup()
    call = getattr(workload, "call_in_process", workload.call)
    inputs = workload.accuracy_inputs()
    worst, failed = 0.0, 0
    for inp in inputs:
        ok, margin = workload.check(inp, call(inp))
        worst = max(worst, margin)
        failed += not ok
    return worst, len(inputs), failed


def _workdir() -> str:
    """Scratch directory for input documents, inside the checkout; removed after the run."""
    return tempfile.mkdtemp(prefix=".perfbench_work-", dir=ROOT)


def measure(name: str, seed: int, seconds: float, min_ops: int = MIN_OPS) -> tuple:
    """Untraced run: (end-to-end metrics, attempted, failed, record)."""
    workdir = _workdir()
    try:
        workload = WORKLOADS[name](seed, workdir)
        setup_s, setup_host_ms = [], []
        for _ in range(SETUP_REPEATS):
            setup_host_ms.append(calibrate())
            t0 = time.perf_counter()
            workload.setup()
            setup_s.append(time.perf_counter() - t0)
        loop = OpLoop().run(workload, workload.call, seconds, min_ops)
        worst_margin, accuracy_ops, accuracy_failed = accuracy(name, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    who = resource.RUSAGE_CHILDREN if name == "cli_cold" else resource.RUSAGE_SELF
    scaled = loop.scaled_times(workload.CYCLE)
    attempted = len(loop.times) + accuracy_ops
    failed = loop.failed + accuracy_failed
    metrics = {
        "ops_per_s": (windowed_rate(scaled, workload.CYCLE), "1/s"),
        "op_p50_ms": (median(scaled) * 1e3, "ms"),
        "op_p90_ms": (percentile(scaled, P90) * 1e3, "ms"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
        "worst_margin": (worst_margin, "ratio"),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024.0, "MB"),
        "setup_s": (median([s * CALIBRATION_REF_MS / h for s, h in zip(setup_s, setup_host_ms)]), "s"),
    }
    record = {
        "timed_ops": len(loop.times),
        # over the ops every run completes, so that it depends on the seed alone
        "seeded_worst_margin": max(loop.margins[:min_ops]),
        "calibration_ms": {"median": median(loop.host_ms), "min": min(loop.host_ms),
                           "max": max(loop.host_ms), "setup": setup_host_ms},
        "raw": {"ops_per_s": windowed_rate(loop.times, workload.CYCLE),
                "op_p50_ms": median(loop.times) * 1e3,
                "op_p90_ms": percentile(loop.times, P90) * 1e3,
                "setup_samples_s": setup_s},
    }
    return metrics, attempted, failed, record


def trace(name: str, seed: int, seconds: float, min_ops: int = 5) -> tuple:
    """Traced run: (per-layer metrics, attempted, failed, record)."""
    workdir = _workdir()
    try:
        workload = WORKLOADS[name](seed, workdir)
        workload.setup()
        # cli_cold's traced ops go through cli.main in-process: the wrapper
        # cannot see numpy inside a child process
        call = getattr(workload, "call_in_process", workload.call)
        loop_s = seconds * TRACE_LOOP_SHARE
        plain = OpLoop().run(workload, call, loop_s, min_ops)
        with LinalgTracer() as tracer:
            traced = OpLoop().run(workload, call, loop_s, min_ops, tracer)
            ops = len(traced.times)
            metrics = {
                "linalg.svd_calls_per_op": (tracer.calls["svd"] / ops, "count"),
                "linalg.factorizations_per_op": (tracer.factorizations() / ops, "count"),
                "linalg.norm_calls_per_op": (tracer.calls["norm"] / ops, "count"),
                "linalg.factorization_ms_per_op": (tracer.factorization_s * 1e3 / ops, "ms"),
            }
            linalg_failed = tracer.failed
            layer_metrics, layer_failed, rounds = probe_layers(
                tracer, workload, seed, workdir, seconds * (1 - 2 * TRACE_LOOP_SHARE))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    metrics.update(layer_metrics)
    layer_failed["linalg"] += linalg_failed
    for layer in ("linalg", "matrix_core", "frame_ops", "reconstruct", "verifier", "cli"):
        metrics[f"{layer}.failed"] = (layer_failed[layer], "count")
    common = min(ops, len(plain.times))  # the same inputs on both sides
    metrics["trace.overhead_ratio"] = (sum(traced.times[:common]) / sum(plain.times[:common]), "ratio")
    attempted = len(plain.times) + ops
    failed = plain.failed + traced.failed
    record = {"probe_rounds": rounds, "traced_ops": ops, "untraced_ops": len(plain.times),
              "layer_failures": sum(layer_failed.values())}
    return metrics, attempted, failed, record


def parse_args(argv):
    parser = argparse.ArgumentParser(description="framekit benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        parser.error("--seed must lie in [0, 2**63)")
    if not 0 < args.seconds <= 60:
        parser.error("--seconds must lie in (0, 60]")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    run = trace if args.trace else measure
    metrics, attempted, failed, record = run(args.workload, args.seed, args.seconds)
    record.update({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "machine": machine_record()})
    print("record " + json.dumps(record, sort_keys=True))
    for key, (value, unit) in metrics.items():
        print(f"{args.workload} {key} = {value:.6g} {unit}")
    result = {
        "correct": failed == 0 and record.get("layer_failures", 0) == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
