"""Tests of the benchmark itself: statistics, tracing, workloads, entry point.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import framekit as fk  # noqa: E402
import compare  # noqa: E402
import harness  # noqa: E402
import run  # noqa: E402
from stats import MIN_TAIL, min_samples, percentile, self_time  # noqa: E402
from tracing import COUNTED, LinalgTracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def test_percentile_needs_ten_samples_beyond_it():
    xs = list(range(1, 101))
    assert percentile(xs, 0.9) == 90.0
    assert sum(x > percentile(xs, 0.9) for x in xs) == MIN_TAIL
    with pytest.raises(ValueError):
        percentile(xs[:99], 0.9)
    assert min_samples(0.9) == 100
    assert min_samples(0.5) == 20
    percentile(range(20), 0.5)
    with pytest.raises(ValueError):
        percentile(range(19), 0.5)


def test_self_time_subtracts_child_medians():
    total = [10.0, 12.0, 11.0]
    children = [[2.0, 3.0, 4.0], [1.0, 1.0, 5.0]]
    assert self_time(total, children) == pytest.approx(11.0 - 3.0 - 1.0)
    assert self_time(total, []) == 11.0


def test_linalg_tracer_counts_and_restores_numpy():
    originals = {name: getattr(np.linalg, name) for name in COUNTED}
    frame = fk.FrameSequence.from_vectors([[1, 0], [0, 1], [1, 1]])
    with LinalgTracer() as tracer:
        assert np.linalg.svd is not originals["svd"]
        fk.build_bundle(frame)  # not recording: not counted
        assert tracer.calls["svd"] == 0
        tracer.recording = True
        fk.build_bundle(frame)
        tracer.recording = False
    assert tracer.calls["svd"] == 4
    assert tracer.factorization_s > 0.0
    assert all(getattr(np.linalg, name) is fn for name, fn in originals.items())

    with pytest.raises(RuntimeError):
        with LinalgTracer():
            raise RuntimeError("boom")
    assert all(getattr(np.linalg, name) is fn for name, fn in originals.items())


@pytest.fixture
def pinned_env(monkeypatch):
    """The environment run.py gives the harness, which its child processes need."""
    for key, value in run.pinned_env().items():
        monkeypatch.setenv(key, value)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_smoke(name, tmp_path, pinned_env):
    workload = WORKLOADS[name](7, str(tmp_path))
    workload.setup()
    loop = harness.OpLoop().run(workload, workload.call, 0.0, 3)
    assert len(loop.times) == workload.CYCLE and loop.failed == 0  # whole cycles only
    assert len(loop.host_ms) == 1 and len(loop.scaled_times(workload.CYCLE)) == workload.CYCLE
    worst, ops, failed = harness.accuracy(name, str(tmp_path))
    assert failed == 0 and ops > 0 and 0.0 < worst < 1.0


def test_untraced_run_reports_every_end_to_end_metric(pinned_env):
    metrics, attempted, failed, _ = harness.measure("verify_small", 7, 0.1)
    assert failed == 0 and attempted >= harness.MIN_OPS
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v, _ in metrics.values())


def test_traced_run_reports_every_per_layer_metric(pinned_env):
    metrics, _, failed, record = harness.trace("verify_small", 7, 1.0)
    assert failed == 0 and record["layer_failures"] == 0
    assert {k: u for k, (_, u) in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert metrics["linalg.svd_calls.run_identity_suite"][0] == 26
    assert metrics["linalg.svd_calls.min_norm_coefficients"][0] == 4


def test_run_refuses_a_checkout_without_framekit(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "verify_small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def _write_run(directory, seed, ops_per_s, margin):
    record = {"workload": "w", "seed": seed, "trace": 0, "seeded_worst_margin": margin}
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    metrics["ops_per_s"]["value"] = ops_per_s
    with open(directory / f"w.{seed}.log", "w", encoding="utf-8") as handle:
        handle.write("record " + json.dumps(record) + "\n")
        handle.write(json.dumps({"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}) + "\n")


def test_compare_flags_regressions_and_margin_rises(tmp_path):
    base, same, slow, noisy = (tmp_path / d for d in ("base", "same", "slow", "noisy"))
    for d in (base, same, slow, noisy):
        d.mkdir()
    for seed in range(1, 5):
        _write_run(base, seed, 100.0 + seed * 0.1, 0.5)
        _write_run(same, seed, 100.0 - seed * 0.1, 0.5)
        _write_run(slow, seed, 50.0 + seed * 0.1, 0.5 + (seed == 2))
        _write_run(noisy, seed, (50.0, 150.0, 60.0, 140.0)[seed - 1], 0.5)

    def verdicts(head):
        return {r["metric"]: r["verdict"] for r in compare.compare(str(base), str(head), SPEC)}

    assert set(verdicts(same).values()) == {"ok"}
    slow_rows = verdicts(slow)
    assert slow_rows["ops_per_s"] == "worse"
    assert slow_rows["seeded_worst_margin"] == "margin-rise"
    assert verdicts(noisy)["ops_per_s"] == "unresolved"
