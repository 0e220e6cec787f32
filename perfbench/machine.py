"""What machine a result was measured on, and how fast it ran at the time."""

from __future__ import annotations

import os
import platform
import sys
import time

import numpy as np

from run import THREAD_VARS
from stats import median


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_version() -> str:
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{deps.get('name', '?')} {deps.get('version', '?')}"
    except (TypeError, KeyError):
        return "unknown"


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": _blas_version(),
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def _calibration_kernel(small: np.ndarray, mid: np.ndarray) -> float:
    # fixed mix like framekit's: interpreter-bound tiny-matrix LAPACK and norms,
    # plus one mid-sized SVD and product
    acc = 0.0
    for _ in range(40):
        u, s, vh = np.linalg.svd(small, full_matrices=False)
        acc += float(np.linalg.norm(small[0])) + float(np.max(np.abs(u * s @ vh)))
    acc += float(np.linalg.svd(mid, compute_uv=False)[0]) + float(np.abs(mid @ mid).sum())
    return acc


def calibrate(repeats: int = 3) -> float:
    """Median milliseconds of a fixed pure-numpy kernel on this host, now.

    The kernel and its input never change and framekit takes no part in it,
    so a change in this figure is a change in the host's speed, not in the
    program under test.
    """
    rng = np.random.Generator(np.random.PCG64(0xCA1B))
    small = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
    mid = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        _calibration_kernel(small, mid)
        samples.append((time.perf_counter() - t0) * 1e3)
    return median(samples)
