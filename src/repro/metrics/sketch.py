"""Fixed-resolution histogram sketch for streaming percentiles.

A DDSketch-style log-bucketed histogram: every positive value lands in
bucket ``ceil(log_gamma(v))`` with ``gamma = (1 + alpha) / (1 - alpha)``,
and the bucket's representative value is off from any value it holds by a
relative error of at most ``alpha``. Negative values mirror into their own
bucket table and zeros are counted separately, so the sketch accepts any
finite input.

Accuracy contract (the "exactness flag" callers declare): the estimate
returned for the ``q``-th percentile is within relative error ``alpha``
of an order statistic adjacent to the target rank ``(q / 100) * (n - 1)``.
For interpolating percentiles this is the honest guarantee — when the two
adjacent order statistics are far apart (tiny ``n``, heavy tails) the
interpolated exact value can sit between buckets, which is why callers
that cannot tolerate that keep ``tolerance=None`` and take the exact
sorting path.

Counts are plain integers added and removed symmetrically, so a sketch
maintained incrementally over a sliding window is bucket-for-bucket
identical to one built in a single pass over the same values — the
property the streaming-equivalence suite relies on.
"""

from __future__ import annotations

import math
from typing import Dict

#: Default relative accuracy when a caller asks for "sketched" without
#: declaring a tolerance: 1 %.
DEFAULT_ALPHA = 0.01


class HistogramSketch:
    """Mergeable log-bucket histogram with bounded relative error."""

    __slots__ = ("alpha", "_gamma", "_log_gamma", "_pos", "_neg", "_zeros", "count")

    def __init__(self, alpha: float = DEFAULT_ALPHA) -> None:
        if not 0.0 < alpha < 1.0:
            raise ValueError(f"alpha must be in (0, 1): {alpha}")
        self.alpha = alpha
        self._gamma = (1.0 + alpha) / (1.0 - alpha)
        self._log_gamma = math.log(self._gamma)
        self._pos: Dict[int, int] = {}
        self._neg: Dict[int, int] = {}
        self._zeros = 0
        self.count = 0

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def _key(self, magnitude: float) -> int:
        return math.ceil(math.log(magnitude) / self._log_gamma)

    def add(self, value: float, n: int = 1) -> None:
        """Count ``value`` ``n`` times."""
        if value > 0.0:
            key = self._key(value)
            self._pos[key] = self._pos.get(key, 0) + n
        elif value < 0.0:
            key = self._key(-value)
            self._neg[key] = self._neg.get(key, 0) + n
        else:
            self._zeros += n
        self.count += n

    def remove(self, value: float, n: int = 1) -> None:
        """Uncount ``value`` (windowed eviction); exact inverse of add."""
        if value > 0.0:
            table, key = self._pos, self._key(value)
        elif value < 0.0:
            table, key = self._neg, self._key(-value)
        else:
            self._zeros -= n
            self.count -= n
            return
        remaining = table.get(key, 0) - n
        if remaining > 0:
            table[key] = remaining
        else:
            table.pop(key, None)
        self.count -= n

    def merge(self, other: "HistogramSketch") -> None:
        """Fold another sketch of the same resolution into this one."""
        if other.alpha != self.alpha:
            raise ValueError(
                f"cannot merge sketches of different alpha: "
                f"{self.alpha} != {other.alpha}"
            )
        for key, n in other._pos.items():
            self._pos[key] = self._pos.get(key, 0) + n
        for key, n in other._neg.items():
            self._neg[key] = self._neg.get(key, 0) + n
        self._zeros += other._zeros
        self.count += other.count

    def clear(self) -> None:
        self._pos.clear()
        self._neg.clear()
        self._zeros = 0
        self.count = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _bucket_value(self, key: int) -> float:
        """Representative value of bucket ``key``: the midpoint of
        ``(gamma^(key-1), gamma^key]``, within ``alpha`` of every member."""
        return 2.0 * self._gamma ** key / (self._gamma + 1.0)

    def percentile(self, q: float) -> float:
        """Estimate of the ``q``-th percentile (0-100); see module docstring."""
        if not 0 <= q <= 100:
            raise ValueError(f"percentile must be in [0, 100]: {q}")
        if self.count <= 0:
            raise ValueError("percentile of empty sketch")
        rank = (q / 100.0) * (self.count - 1)
        # Walk buckets in ascending value order: negatives from largest
        # magnitude down, then zeros, then positives from smallest up.
        seen = 0
        for key in sorted(self._neg, reverse=True):
            seen += self._neg[key]
            if seen > rank:
                return -self._bucket_value(key)
        seen += self._zeros
        if seen > rank:
            return 0.0
        for key in sorted(self._pos):
            seen += self._pos[key]
            if seen > rank:
                return self._bucket_value(key)
        # rank == count - 1 lands here only via float round-off.
        if self._pos:
            return self._bucket_value(max(self._pos))
        if self._zeros:
            return 0.0
        return -self._bucket_value(min(self._neg))

    def __len__(self) -> int:
        return len(self._pos) + len(self._neg) + (1 if self._zeros else 0)

    def __repr__(self) -> str:
        return (
            f"HistogramSketch(alpha={self.alpha}, count={self.count}, "
            f"buckets={len(self)})"
        )
