"""A single time series: ring storage, retention, and windowed queries.

Samples must arrive in non-decreasing time order (the simulation clock
guarantees this). Both axes are packed C doubles (``array('d')``, 16 bytes
a sample; a list slot plus a boxed float costs ≈ 40–64). Storage is an
index-offset ring: trimming past the retention horizon advances a head
index instead of front-deleting the backing arrays, and the dead prefix is
compacted away only once it is both long and at least as large as the live
data — O(1) amortized per append instead of O(n).

Every windowed read has one path: bisect the window's bounds on the time
axis, then reduce the value slice in C (``math.fsum``, ``max``, a sort for
percentiles). The platform's windows are short — 5 to 60 samples for the
scaler, the stats fallback and the burn-rate rules, a few hundred for the
SLO compliance windows — and a rescan of that size costs less than
keeping a rolling state per window up to date on every append (DESIGN.md,
"Metrics engine", has the measurement).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from typing import List, Optional, Tuple

from repro.metrics.aggregate import percentile
from repro.types import Seconds

#: Compact the ring only when the dead prefix reaches this length *and*
#: is at least as long as the live suffix (amortized O(1) per append).
COMPACT_MIN = 64


class TimeSeries:
    """Append-only ``(time, value)`` samples with a retention horizon.

    Slotted: a platform keeps a dozen series per job.
    """

    __slots__ = (
        "retention", "_times", "_values", "_head", "window_queries", "compactions",
    )

    def __init__(self, retention: Optional[Seconds] = None) -> None:
        if retention is not None and retention <= 0:
            raise ValueError(f"retention must be positive: {retention}")
        self.retention = retention
        #: Packed doubles: every append converts exactly as ``float()``
        #: does, and every read unboxes the same double it stored.
        self._times = array("d")
        self._values = array("d")
        #: Physical index of the first live (retained) sample.
        self._head = 0
        #: Introspection counters (see ``MetricStore.read_stats``).
        self.window_queries = 0
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._times) - self._head

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def record(self, time: Seconds, value: float) -> None:
        """Append a sample at ``time``."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {times[-1]}"
            )
        times.append(time)
        self._values.append(float(value))
        retention = self.retention
        if retention is not None and times[self._head] < time - retention:
            self._trim(time - retention)

    def _trim(self, horizon: Seconds) -> None:
        """Retire the samples older than ``horizon`` (there is at least one)."""
        new_head = bisect_left(self._times, horizon, self._head)
        self._head = new_head
        if new_head >= COMPACT_MIN and new_head * 2 >= len(self._times):
            del self._times[:new_head]
            del self._values[:new_head]
            self._head = 0
            self.compactions += 1

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def latest(self) -> Optional[float]:
        """The most recent value, or ``None`` if empty."""
        return self._values[-1] if len(self._times) > self._head else None

    def latest_time(self) -> Optional[Seconds]:
        """The most recent sample time, or ``None`` if empty."""
        return self._times[-1] if len(self._times) > self._head else None

    def earliest_time(self, since: Optional[Seconds] = None) -> Optional[Seconds]:
        """The oldest retained sample time at or after ``since`` (the oldest
        retained at all when ``since`` is ``None``: O(1)), or ``None``."""
        times, head = self._times, self._head
        if since is not None:
            head = bisect_left(times, since, head)
        return times[head] if len(times) > head else None

    def _bounds(self, start: Seconds, end: Seconds) -> Tuple[int, int]:
        """Physical ``[lo, hi)`` of the samples with ``start <= time <= end``."""
        times, head = self._times, self._head
        return bisect_left(times, start, head), bisect_right(times, end, head)

    def window(self, start: Seconds, end: Seconds) -> List[Tuple[Seconds, float]]:
        """Samples with ``start <= time <= end``."""
        lo, hi = self._bounds(start, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def values_in(self, start: Seconds, end: Seconds) -> List[float]:
        """Just the values with ``start <= time <= end``."""
        lo, hi = self._bounds(start, end)
        return self._values[lo:hi].tolist()

    def all_points(self) -> List[Tuple[Seconds, float]]:
        """Every retained sample (mostly for reports and tests)."""
        head = self._head
        return list(zip(self._times[head:], self._values[head:]))

    # ------------------------------------------------------------------
    # Trailing-window queries (the scaler / SLO hot path)
    # ------------------------------------------------------------------
    def _trailing(self, duration: Seconds, now: Seconds) -> array:
        """The values of the trailing ``duration`` window ending at ``now``
        (an array slice: ``math.fsum`` and ``max`` reduce it in C)."""
        self.window_queries += 1
        times, head = self._times, self._head
        return self._values[
            bisect_left(times, now - duration, head):bisect_right(times, now, head)
        ]

    def average_over(self, duration: Seconds, now: Seconds) -> Optional[float]:
        """Mean of samples in the trailing ``duration`` window, or ``None``.

        This implements readings like "average memory over the last 10
        minutes" (paper section IV-B) and "average input rate in the last
        30 minutes" (section V-C): the correctly rounded window sum
        divided by the count.
        """
        values = self._trailing(duration, now)
        return math.fsum(values) / len(values) if values else None

    def max_over(self, duration: Seconds, now: Seconds) -> Optional[float]:
        """Max of samples in the trailing window, or ``None`` (peak usage)."""
        values = self._trailing(duration, now)
        return max(values) if values else None

    def percentile_over(
        self, duration: Seconds, now: Seconds, q: float
    ) -> Optional[float]:
        """The exact ``q``-th percentile of the trailing window, or ``None``."""
        values = self.values_in(now - duration, now)
        return percentile(values, q) if values else None

    # ------------------------------------------------------------------
    # Historical-range queries (the pattern analyzer's 14-day reads)
    # ------------------------------------------------------------------
    def aggregate_between(
        self, start: Seconds, end: Seconds
    ) -> Tuple[float, int, Optional[float]]:
        """``(sum, count, max)`` over ``start <= time <= end``; the sum is
        correctly rounded (``math.fsum``)."""
        lo, hi = self._bounds(start, end)
        chunk = self._values[lo:hi]
        if not chunk:
            return 0.0, 0, None
        return math.fsum(chunk), len(chunk), max(chunk)

    def mean_between(self, start: Seconds, end: Seconds) -> Optional[float]:
        """Mean over ``start <= time <= end``, or ``None`` if empty."""
        total, count, _ = self.aggregate_between(start, end)
        return total / count if count else None

    def max_between(self, start: Seconds, end: Seconds) -> Optional[float]:
        """Max over ``start <= time <= end``, or ``None`` if empty. No sum
        is taken, so values that overflow one (``1e308``, ``±inf``) read."""
        lo, hi = self._bounds(start, end)
        return max(self._values[lo:hi]) if hi > lo else None

    def count_between(self, start: Seconds, end: Seconds) -> int:
        """Number of samples with ``start <= time <= end`` (two bisects; no
        value is read)."""
        lo, hi = self._bounds(start, end)
        return hi - lo

    def __repr__(self) -> str:
        return f"TimeSeries(samples={len(self)}, retention={self.retention})"
