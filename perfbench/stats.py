"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
import statistics

# A percentile is reported only when at least this many samples lie beyond it.
MIN_TAIL = 10


def median(samples) -> float:
    return float(statistics.median(samples))


def percentile(samples, q: float) -> float:
    """Nearest-rank q-quantile of the samples, 0 < q < 1.

    Raises ValueError unless at least MIN_TAIL samples lie strictly beyond the
    reported rank, so a tail figure always rests on a tail of real samples.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    xs = sorted(samples)
    rank = max(1, math.ceil(q * len(xs)))
    if len(xs) - rank < MIN_TAIL:
        raise ValueError(
            f"p{100 * q:g} needs {MIN_TAIL} samples beyond it; "
            f"{len(xs)} samples leave {len(xs) - rank}"
        )
    return float(xs[rank - 1])


def min_samples(q: float) -> int:
    """Smallest sample count for which percentile(samples, q) is defined."""
    n = MIN_TAIL + 1
    while n - max(1, math.ceil(q * n)) < MIN_TAIL:
        n += 1
    return n


def self_time(total, children) -> float:
    """Median of a call minus the medians of the child calls it makes.

    Each child is timed directly, on the same input, as its own sample list.
    Noise can push the difference below zero when the self part is small;
    it is returned as measured.
    """
    return median(total) - sum(median(c) for c in children)


def windowed_rate(times, cycle: int, windows: int = 10) -> float:
    """Median over consecutive windows of whole op cycles of ops per second.

    A window holds whole cycles of the workload's op mix, so every window
    runs the same mix; the median ignores windows a passing burst of load
    on the host slowed down.
    """
    per = max(1, len(times) // cycle // windows) * cycle
    if per > len(times):
        return len(times) / sum(times)
    return median([per / sum(times[k:k + per]) for k in range(0, len(times) - per + 1, per)])


def relative_spread(values) -> float:
    """Interquartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
