"""Aggregation helpers: mean, standard deviation, percentiles, CDFs.

Implemented from scratch (no numpy dependency in the library itself) so the
core package stays dependency-free; the benchmarks may use numpy for plots.

``mean`` and ``stdev`` are single-pass (Welford) implementations: they
consume any iterable without materializing it and without a second pass.
Welford's update accumulates ``(v - m) / n`` corrections instead of a raw
sum, so results can differ from the old two-pass formulas in the last few
ulps — callers treat both as approximate (the paper's imbalance measure,
report tables); nothing keys byte-exact behaviour off them.
"""

from __future__ import annotations

import math
from typing import Iterable, List, Sequence, Tuple


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; 0.0 for an empty input (convenient for metrics).

    Single pass, streaming-friendly: works on any iterable.
    """
    count = 0
    running = 0.0
    for value in values:
        count += 1
        running += (value - running) / count
    return running if count else 0.0


def stdev(values: Iterable[float]) -> float:
    """Population standard deviation; 0.0 for fewer than two values.

    The paper uses the standard deviation of per-task processing rates to
    measure imbalanced input (section V-A). Welford's single-pass update
    replaces the old two-pass sum-of-squared-deviations: one traversal,
    no list materialization, and better conditioning for large means.
    """
    count = 0
    running_mean = 0.0
    m2 = 0.0
    for value in values:
        count += 1
        delta = value - running_mean
        running_mean += delta / count
        m2 += delta * (value - running_mean)
    if count < 2:
        return 0.0
    return math.sqrt(max(0.0, m2) / count)


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0–100) with linear interpolation.

    Matches numpy's default ("linear") method so benchmark output is
    comparable with standard tooling.
    """
    if not 0 <= q <= 100:
        raise ValueError(f"percentile must be in [0, 100]: {q}")
    if not values:
        raise ValueError("percentile of empty sequence")
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    rank = (q / 100.0) * (len(ordered) - 1)
    low = int(math.floor(rank))
    high = int(math.ceil(rank))
    if low == high:
        return ordered[low]
    fraction = rank - low
    return ordered[low] * (1 - fraction) + ordered[high] * fraction


def cdf_points(values: Sequence[float]) -> List[Tuple[float, float]]:
    """Empirical CDF as ``(value, cumulative_fraction)`` points.

    Used to regenerate the paper's Fig. 5 (CPU and memory usage CDFs of
    Scuba Tailer tasks).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return []
    return [(value, (index + 1) / n) for index, value in enumerate(ordered)]


def fraction_below(values: Sequence[float], threshold: float) -> float:
    """Fraction of values strictly below ``threshold`` (CDF evaluation)."""
    if not values:
        return 0.0
    return sum(1 for value in values if value < threshold) / len(values)
