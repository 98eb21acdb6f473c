"""A single time series: ring storage, retention, and windowed queries.

Samples must arrive in non-decreasing time order (the simulation clock
guarantees this). Storage is an index-offset ring: trimming past the
retention horizon advances a head index instead of front-deleting the
backing lists, and the dead prefix is compacted away only once it is both
long and at least as large as the live data — O(1) amortized per append
instead of O(n).

On top of the ring sit three streaming read paths, all byte-identical to
a naive rescan of the retained samples — which is also what each falls
back to when it cannot serve a read (the golden suites and the hypothesis
suite against ``repro.testing.reference.NaiveTimeSeries`` enforce this):

* **trailing windows** (``average_over`` / ``max_over``) holding more
  than :data:`RESCAN_MAX` samples are served by per-duration
  :class:`~repro.metrics.window.WindowAggregate` rolling states — O(1)
  amortized instead of O(window); smaller ones are rescanned in C
  (``math.fsum`` / ``max`` over the slice), which is cheaper there;
* **historical ranges** (``aggregate_between`` and friends, what the
  14-day pattern analyzer reads) are served from the coarse
  :class:`~repro.metrics.rollup.RollupTier` buckets plus raw edges;
* **windowed percentiles** with a declared tolerance are served from a
  :class:`~repro.metrics.sketch.HistogramSketch` maintained alongside the
  window state; without a tolerance the exact sorting path runs.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Dict, List, Optional, Tuple

from repro.metrics.aggregate import percentile
from repro.metrics.rollup import DEFAULT_ROLLUP_PERIOD, RollupTier
from repro.metrics.sketch import HistogramSketch
from repro.metrics.window import WindowAggregate
from repro.types import Seconds

#: Compact the ring only when the dead prefix reaches this length *and*
#: is at least as long as the live suffix (amortized O(1) per append).
COMPACT_MIN = 64

#: A trailing window holding at most this many samples is rescanned (C,
#: per *read*, no state); only above it is a rolling state built (Python
#: per *sample* per window — one exact-add in, one out — plus memory).
#: Microseconds for one record + one read per round, rolling / rescan,
#: min of 40 runs (2 vCPUs, CPython 3.11.7; EXPERIMENTS.md "PR 24"):
#:
#:   samples   average, 0/1 data   average, floats   max, floats
#:         5       2.7 /  1.2        3.0 /   1.2      2.9 /   1.3
#:        30       2.7 /  1.5        3.3 /   2.0      2.9 /   1.8
#:        60       2.9 /  1.8        3.3 /   2.7      3.0 /   2.3
#:       360       2.9 /  4.8        3.4 /   8.9      3.2 /   7.5
#:     1 440       3.6 / 14.9        4.0 /  33.3      4.6 /  24.6
#:    10 000       3.3 / 95.6        6.5 / 208.9      3.5 / 161.8
#:
#: Break-even: ≈ 90–105 samples on floats, ≈ 160 on the SLO plane's 0/1.
RESCAN_MAX = 100

#: Series retaining more than this automatically grow a rollup tier
#: (the pattern analyzer's 14-day series; the 2-day default stays raw).
ROLLUP_AUTO_RETENTION: Seconds = 3 * 24 * 3600.0


class TimeSeries:
    """Append-only ``(time, value)`` samples with a retention horizon."""

    def __init__(
        self,
        retention: Optional[Seconds] = None,
        rollup_period: Optional[Seconds] = None,
        telemetry=None,
    ) -> None:
        if retention is not None and retention <= 0:
            raise ValueError(f"retention must be positive: {retention}")
        self.retention = retention
        self._times: List[Seconds] = []
        self._values: List[float] = []
        #: Physical index of the first live (retained) sample.
        self._head = 0
        #: Absolute index of physical position 0 — the count of samples
        #: compacted away — so window state survives compactions.
        self._abs0 = 0
        #: Per-duration rolling window states, created by the first read
        #: that finds more than ``RESCAN_MAX`` samples in the window.
        self._aggs: Dict[float, WindowAggregate] = {}
        #: Rollups are maintained on the append path whenever configured
        #: (cheap: one exact-add into the newest bucket).
        if rollup_period is not None:
            self._rollup: Optional[RollupTier] = RollupTier(rollup_period)
        elif retention is not None and retention > ROLLUP_AUTO_RETENTION:
            self._rollup = RollupTier(DEFAULT_ROLLUP_PERIOD)
        else:
            self._rollup = None
        self._telemetry = telemetry
        #: Introspection counters (see MetricStore telemetry publishing).
        self.window_queries = 0
        self.window_fast = 0
        self.rollup_reads = 0
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
        value = float(value)
        times.append(time)
        self._values.append(value)
        if self._rollup is not None:
            self._rollup.add(time, value)
        retention = self.retention
        if retention is not None and times[self._head] < time - retention:
            self._trim(time - retention)

    def _trim(self, horizon: Seconds) -> None:
        """Retire the samples older than ``horizon`` (there is at least one)."""
        head = self._head
        new_head = bisect_left(self._times, horizon, head)
        # Let the streaming state subtract what it is about to lose while
        # the values are still addressable; the just-appended sample is
        # always live, so a live tail exists.
        if self._aggs:
            cut_abs = self._abs0 + new_head
            for agg in self._aggs.values():
                agg.forget_before(cut_abs, self._values, self._abs0)
        if self._rollup is not None:
            self._rollup.trim_before(self._times[new_head])
        self._head = new_head
        if new_head >= COMPACT_MIN and new_head * 2 >= len(self._times):
            del self._times[:new_head]
            del self._values[:new_head]
            self._abs0 += new_head
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

    def window(self, start: Seconds, end: Seconds) -> List[Tuple[Seconds, float]]:
        """Samples with ``start <= time <= end``."""
        lo = bisect_left(self._times, start, self._head)
        hi = bisect_right(self._times, end, self._head)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def values_in(self, start: Seconds, end: Seconds) -> List[float]:
        """Just the values with ``start <= time <= end``."""
        lo = bisect_left(self._times, start, self._head)
        hi = bisect_right(self._times, end, self._head)
        return self._values[lo:hi]

    def all_points(self) -> List[Tuple[Seconds, float]]:
        """Every retained sample (mostly for reports and tests)."""
        head = self._head
        return list(zip(self._times[head:], self._values[head:]))

    # ------------------------------------------------------------------
    # Trailing-window queries (the scaler/balancer hot path)
    # ------------------------------------------------------------------
    def _window_agg(
        self, duration: Seconds, now: Seconds, lo: int
    ) -> Optional[WindowAggregate]:
        """The up-to-date rolling state for the trailing window starting at
        physical index ``lo``, or ``None`` when the query cannot be served
        incrementally (``now`` behind the newest sample, or a window start
        that moved backwards)."""
        n = len(self._times)
        if now < self._times[-1]:
            return None
        start = now - duration
        agg = self._aggs.get(duration)
        if agg is None:
            # Seed a cold aggregate at the window's left edge so the first
            # read costs O(window), not O(ring) (ingesting the whole ring
            # just to evict most of it again).
            agg = WindowAggregate(duration, self._abs0 + lo)
            self._aggs[duration] = agg
        elif start < agg.last_start:
            return None
        agg.ingest(self._values, self._abs0, n)
        agg.advance(self._times, self._values, self._abs0, start)
        return agg

    def _window(
        self, duration: Seconds, now: Seconds
    ) -> Tuple[int, int, Optional[WindowAggregate]]:
        """``(lo, hi, agg)`` for one trailing-window read: the physical
        bounds ``values_in`` would slice, and the window's rolling state
        when it holds more than ``RESCAN_MAX`` samples and can be served
        incrementally — ``None`` tells the caller to rescan ``[lo, hi)``."""
        times = self._times
        lo = bisect_left(times, now - duration, self._head)
        hi = bisect_right(times, now, self._head)
        agg = self._window_agg(duration, now, lo) if hi - lo > RESCAN_MAX else None
        self.window_queries += 1
        if agg is not None:
            self.window_fast += 1
        if self._telemetry is not None:
            self._telemetry.inc(
                "metrics.window.fallback" if agg is None else "metrics.window.fast"
            )
        return lo, hi, agg

    def average_over(self, duration: Seconds, now: Seconds) -> Optional[float]:
        """Mean of samples in the trailing ``duration`` window, or ``None``.

        This implements readings like "average memory over the last 10
        minutes" (paper section IV-B) and "average input rate in the last
        30 minutes" (section V-C). Both paths divide the correctly
        rounded window sum by the count, so they agree bit for bit.
        """
        lo, hi, agg = self._window(duration, now)
        if agg is not None:
            return agg.sum() / agg.count
        if hi <= lo:
            return None
        return math.fsum(self._values[lo:hi]) / (hi - lo)

    def max_over(self, duration: Seconds, now: Seconds) -> Optional[float]:
        """Max of samples in the trailing window, or ``None`` (peak usage)."""
        lo, hi, agg = self._window(duration, now)
        if agg is not None:
            return agg.max()
        return max(self._values[lo:hi]) if hi > lo else None

    def percentile_over(
        self,
        duration: Seconds,
        now: Seconds,
        q: float,
        tolerance: Optional[float] = None,
    ) -> Optional[float]:
        """The ``q``-th percentile of the trailing window, or ``None``.

        With ``tolerance=None`` the exact sorting path runs. Declaring a
        tolerance opts into the histogram sketch (relative error bound
        ``tolerance``; see :mod:`repro.metrics.sketch`) — above
        ``RESCAN_MAX`` the sketch is maintained incrementally alongside
        the window state, and because its integer bucket counts
        add/remove symmetrically, the streaming and rescan answers are
        identical.
        """
        if tolerance is None:
            values = self.values_in(now - duration, now)
            return percentile(values, q) if values else None
        lo, hi, agg = self._window(duration, now)
        if hi <= lo:
            return None
        if agg is None:
            sketch = HistogramSketch(tolerance)
            for v in self._values[lo:hi]:
                sketch.add(v)
        else:
            sketch = agg.sketch
            if sketch is None or sketch.alpha != tolerance:
                sketch = agg.sketch = HistogramSketch(tolerance)
                abs0 = self._abs0
                for v in self._values[agg.lo - abs0:agg.hi - abs0]:
                    sketch.add(v)
        return sketch.percentile(q)

    # ------------------------------------------------------------------
    # Historical-range queries (the pattern analyzer's 14-day reads)
    # ------------------------------------------------------------------
    def aggregate_between(
        self, start: Seconds, end: Seconds
    ) -> Tuple[float, int, Optional[float]]:
        """``(sum, count, max)`` over ``start <= time <= end``.

        The sum is the correctly rounded (``math.fsum``) sum of the
        window's values on both the rollup-backed and the raw path, so
        the two agree bit for bit; max is exact under regrouping.
        """
        times, values = self._times, self._values
        lo = bisect_left(times, start, self._head)
        hi = bisect_right(times, end, self._head)
        if hi <= lo:
            return 0.0, 0, None
        rollup = self._rollup
        if rollup is not None and len(rollup):
            cov = rollup.covering(start, end)
            if cov is not None:
                b_lo, b_hi = cov
                first_bs, last_end = rollup.range_bounds(b_lo, b_hi)
                left_hi = bisect_left(times, first_bs, self._head)
                right_lo = bisect_left(times, last_end, self._head)
                # Flat accumulator: raw edge values plus the buckets'
                # expansion terms, correctly rounded by one fsum below.
                acc: List[float] = values[lo:left_hi]
                edge_max = max(acc, default=None)
                bucket_count, bucket_max = rollup.accumulate(b_lo, b_hi, acc)
                count = (left_hi - lo) + bucket_count + (hi - right_lo)
                right = values[right_lo:hi]
                acc.extend(right)
                max_value = max(
                    (
                        m for m in (
                            edge_max, bucket_max, max(right, default=None)
                        )
                        if m is not None
                    ),
                    default=None,
                )
                self.rollup_reads += 1
                if self._telemetry is not None:
                    self._telemetry.inc("metrics.rollup.reads")
                return math.fsum(acc), count, max_value
        chunk = values[lo:hi]
        return math.fsum(chunk), hi - lo, max(chunk)

    def mean_between(self, start: Seconds, end: Seconds) -> Optional[float]:
        """Mean over ``start <= time <= end``, or ``None`` if empty."""
        total, count, _ = self.aggregate_between(start, end)
        return total / count if count else None

    def max_between(self, start: Seconds, end: Seconds) -> Optional[float]:
        """Max over ``start <= time <= end``, or ``None`` if empty."""
        return self.aggregate_between(start, end)[2]

    def count_between(self, start: Seconds, end: Seconds) -> int:
        """Number of samples with ``start <= time <= end``."""
        return self.aggregate_between(start, end)[1]

    def __repr__(self) -> str:
        return f"TimeSeries(samples={len(self)}, retention={self.retention})"
