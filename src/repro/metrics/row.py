"""One entity's metrics as a row: a shared time column, a value column per
metric.

A writer lands an entity's metrics at one ``now`` together — the stats
collector's six per-job numbers each minute — so the row stores that time
once: ``MetricRow.times`` is one packed ``array('d')``, and each metric is a
:class:`Column` whose ``array('d')`` of values pairs slot for slot with it.
A round of ``k`` metrics costs 8 bytes of time plus 8 per column.

A metric absent from a slot another metric of the row was written at holds
NaN there (the store refuses non-finite samples, so NaN is free to mean
"no sample"). A column starts at its first write (``_base`` is the time slot
of its first value), so a metric that first lands in a later round pays
nothing for the rounds before. Reads skip the NaN pads: every column reads
exactly as a series holding only the samples written to it.

Retention is per column. A sample written at ``t`` retires the column's
samples older than ``t - retention`` (the column's own, as a per-metric
series would), by advancing a head index (by one, with no bisect, when
exactly one sample leaves: a short column written every round); a
column's dead prefix is compacted only once it is both long and at least
as large as its live data — O(1) amortized per append. The time column
keeps every slot a column's live range covers: after a column compacts,
the row drops the slots no live range covers, so a column that stops
being written pins only its own slots, not the time between them and the
rest of the row.

Every windowed read has one path: bisect the window's bounds on the time
column inside the column's live range, then reduce the value slice in C
(``math.fsum``, ``max``). The platform's windows are short — 5 to 60
samples for the scaler, the stats fallback and the burn-rate rules — and
a rescan of that size costs less than keeping a rolling state per window
up to date on every append (DESIGN.md, "Metrics engine").
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_left, bisect_right
from itertools import repeat
from typing import Dict, List, Optional, Sequence, Tuple

from repro.types import Seconds

#: Compact a column only when its dead prefix reaches this length *and* is
#: at least as long as its live suffix (amortized O(1) per append); the
#: same two bounds gate dropping a row's uncovered time slots.
COMPACT_MIN = 64

_NAN = math.nan


def _samples(chunk) -> List[float]:
    """``chunk`` without its NaN pads."""
    return [value for value in chunk if value == value]


class Column:
    """One metric of a :class:`MetricRow`, read like a time series.

    ``_values[i]`` pairs with ``_times[_base + i]``. ``_values[_head]`` is
    the oldest retained sample and ``_values[-1]`` the newest, both never a
    pad; every pad sits below index ``_gap_end``, so a read whose window
    starts at or above it filters nothing. Only indices at or above
    ``_head`` are ever mapped to time slots. A column keeps values, not
    bookkeeping: it counts its trailing-window reads on its row's
    :class:`RowTimes`.
    """

    __slots__ = ("retention", "_times", "_values", "_base", "_head", "_gap_end")

    def __init__(
        self, times: "RowTimes", retention: Seconds, slot: int, value: float
    ) -> None:
        self.retention = retention
        #: The row's time column, shared (the row only edits it in place).
        self._times = times
        self._values = array("d", (value,))
        self._base = slot
        self._head = 0
        self._gap_end = 0

    def __len__(self) -> int:
        values, head = self._values, self._head
        if self._gap_end <= head:
            return len(values) - head
        return len(values) - self._gap_end + len(_samples(values[head:self._gap_end]))

    # ------------------------------------------------------------------
    # Ingestion (through MetricRow.append only)
    # ------------------------------------------------------------------
    def _put(self, slot: int, time: Seconds, value: float) -> bool:
        """Land ``value`` at ``slot``, past the slot after the column's end
        (``MetricRow.append`` appends to a column that held the previous
        slot itself), NaN-padding the slots between, and retire what
        ``time`` puts out of retention. True when the column dropped a
        prefix: the row may then drop time slots."""
        values = self._values
        times = self._times
        end = self._base + len(values)
        horizon = time - self.retention
        if times[end - 1] < horizon:
            # Every sample so far expires: restart at this slot.
            del values[:]
            values.append(value)
            self._base, self._head, self._gap_end = slot, 0, 0
            return True
        values.extend(repeat(_NAN, slot - end))
        values.append(value)
        self._gap_end = len(values) - 1
        if times[self._base + self._head] < horizon:
            return self._trim(horizon)
        return False

    def _trim(self, horizon: Seconds) -> bool:
        """Retire the samples older than ``horizon`` (there is at least
        one). True when the column dropped its dead prefix."""
        values, base = self._values, self._base
        head = bisect_left(
            self._times, horizon, base + self._head, base + len(values)
        ) - base
        sample = values[head]
        while sample != sample:  # a pad: the newest value is a sample
            head += 1
            sample = values[head]
        self._head = head
        if head >= COMPACT_MIN and head * 2 >= len(values):
            del values[:head]
            self._base = base + head
            self._gap_end = max(0, self._gap_end - head)
            self._head = 0
            return True
        return False

    # ------------------------------------------------------------------
    # Point queries
    # ------------------------------------------------------------------
    def latest(self) -> Optional[float]:
        """The most recent value, or ``None`` if empty."""
        values = self._values
        return values[-1] if len(values) > self._head else None

    def latest_time(self) -> Optional[Seconds]:
        """The most recent sample time, or ``None`` if empty."""
        values = self._values
        if len(values) <= self._head:
            return None
        return self._times[self._base + len(values) - 1]

    def earliest_time(self, since: Optional[Seconds] = None) -> Optional[Seconds]:
        """The oldest retained sample time at or after ``since`` (the oldest
        retained at all when ``since`` is ``None``: O(1)), or ``None``."""
        values, base, times = self._values, self._base, self._times
        count = len(values)
        if since is None:
            return times[base + self._head] if count > self._head else None
        index = bisect_left(times, since, base + self._head, base + count) - base
        if index < self._gap_end:
            while index < count and values[index] != values[index]:
                index += 1
        return times[base + index] if index < count else None

    def _bounds(self, start: Seconds, end: Seconds) -> Tuple[int, int]:
        """Value indices ``[lo, hi)`` of the slots with ``start <= time <= end``."""
        times, base = self._times, self._base
        first, last = base + self._head, base + len(self._values)
        return (
            bisect_left(times, start, first, last) - base,
            bisect_right(times, end, first, last) - base,
        )

    def window(self, start: Seconds, end: Seconds) -> List[Tuple[Seconds, float]]:
        """Samples with ``start <= time <= end``."""
        lo, hi = self._bounds(start, end)
        base = self._base
        pairs = list(zip(self._times[base + lo:base + hi], self._values[lo:hi]))
        if lo < self._gap_end:
            return [(time, value) for time, value in pairs if value == value]
        return pairs

    def values_in(self, start: Seconds, end: Seconds) -> List[float]:
        """Just the values with ``start <= time <= end``."""
        lo, hi = self._bounds(start, end)
        if lo < self._gap_end:
            return _samples(self._values[lo:hi])
        return self._values[lo:hi].tolist()

    def all_points(self) -> List[Tuple[Seconds, float]]:
        """Every retained sample (mostly for reports and tests)."""
        return self.window(-math.inf, math.inf)

    def _chunk(self, start: Seconds, end: Seconds):
        """The samples with ``start <= time <= end`` as a sequence of floats."""
        lo, hi = self._bounds(start, end)
        chunk = self._values[lo:hi]
        return _samples(chunk) if lo < self._gap_end else chunk

    # ------------------------------------------------------------------
    # Trailing-window query (the scaler / SLO hot path)
    # ------------------------------------------------------------------
    def average_over(self, duration: Seconds, now: Seconds) -> Optional[float]:
        """Mean of samples in the trailing ``duration`` window, or ``None``.

        This implements readings like "average memory over the last 10
        minutes" (paper section IV-B) and "average input rate in the last
        30 minutes" (section V-C): the correctly rounded window sum
        divided by the count (``math.fsum`` reduces the slice in C).
        """
        self._times.window_queries += 1
        values = self._chunk(now - duration, now)
        return math.fsum(values) / len(values) if values else None

    # ------------------------------------------------------------------
    # Historical-range queries (the pattern analyzer's 14-day reads)
    # ------------------------------------------------------------------
    def aggregate_between(
        self, start: Seconds, end: Seconds
    ) -> Tuple[float, int, Optional[float]]:
        """``(sum, count, max)`` over ``start <= time <= end``; the sum is
        correctly rounded (``math.fsum``)."""
        chunk = self._chunk(start, end)
        if not chunk:
            return 0.0, 0, None
        return math.fsum(chunk), len(chunk), max(chunk)

    def max_between(self, start: Seconds, end: Seconds) -> Optional[float]:
        """Max over ``start <= time <= end``, or ``None`` if empty. No sum
        is taken, so values that overflow one (``1e308``) read."""
        chunk = self._chunk(start, end)
        return max(chunk) if chunk else None

    def count_between(self, start: Seconds, end: Seconds) -> int:
        """Number of samples with ``start <= time <= end`` (two bisects and
        no value read, unless the window reaches a pad)."""
        lo, hi = self._bounds(start, end)
        if lo < self._gap_end:
            return len(_samples(self._values[lo:hi]))
        return hi - lo

    def __repr__(self) -> str:
        return f"Column(samples={len(self)}, retention={self.retention})"


class RowTimes(array):
    """A row's time column, an ``array('d')`` that also carries the row's
    introspection counters (see ``MetricStore.read_stats``): trailing-window
    reads and dead prefixes a column dropped. The row's columns share it
    for their times, so they count on it and keep no counter of their own;
    it refers to neither row nor column, so no reference cycle forms."""

    __slots__ = ("window_queries", "compactions")

    def __new__(cls) -> "RowTimes":
        times = super().__new__(cls, "d")
        times.window_queries = 0
        times.compactions = 0
        return times


class MetricRow:
    """Every metric of one entity: one time column, one :class:`Column` per
    metric. Writes are time-ordered per entity (the simulation clock's
    order); a write at the newest slot's time shares that slot unless a
    column it writes already holds a sample there."""

    __slots__ = ("times", "columns", "_retention", "_default_retention")

    def __init__(
        self, retention: Dict[str, Seconds], default_retention: Seconds
    ) -> None:
        self.times = RowTimes()
        #: metric -> column: what ``MetricStore.row`` hands a reader.
        self.columns: Dict[str, Column] = {}
        #: The store's per-metric retention table (shared, read at column
        #: creation).
        self._retention = retention
        self._default_retention = default_retention

    def append(
        self,
        time: Seconds,
        metrics: Sequence[str],
        values: Sequence[Optional[float]],
    ) -> int:
        """Land ``values[i]`` (``None``: absent) as ``metrics[i]`` at
        ``time`` in one slot; returns the number of samples landed. Raises
        ``ValueError``, landing nothing, when ``time`` is older than the
        newest slot; the caller has checked every value for finiteness and
        that no metric is named twice."""
        times, columns = self.times, self.columns
        slot = len(times)
        if slot and time <= times[-1]:
            if time < times[-1]:
                raise ValueError(
                    f"samples must be time-ordered: {time} < {times[-1]}"
                )
            slot -= 1
            for metric, value in zip(metrics, values):
                column = columns.get(metric)
                if (
                    value is not None and column is not None
                    and column._base + len(column._values) > slot
                ):
                    slot += 1  # a second sample of that metric at ``time``
                    break
        if slot == len(times):
            times.append(time)
        landed = 0
        compacted = 0
        for metric, value in zip(metrics, values):
            if value is None:
                continue
            landed += 1
            column = columns.get(metric)
            if column is None:
                columns[metric] = Column(
                    times,
                    self._retention.get(metric, self._default_retention),
                    slot, value,
                )
                continue
            column_values = column._values
            base = column._base
            if base + len(column_values) < slot:
                compacted += column._put(slot, time, value)
                continue
            # Column._put, inlined for a column that held the previous slot,
            # and Column._trim's steady state: exactly one sample leaves, no
            # pad follows it (every pad sits below ``_gap_end``) and no
            # compaction is due.
            column_values.append(value)
            horizon = time - column.retention
            head = column._head
            if times[base + head] < horizon:
                head += 1
                if (
                    times[base + head] >= horizon and head >= column._gap_end
                    and (head < COMPACT_MIN or head * 2 < len(column_values))
                ):
                    column._head = head
                else:
                    compacted += column._trim(horizon)
        if compacted:
            times.compactions += compacted
            self._drop_uncovered_slots()
        return landed

    def _drop_uncovered_slots(self) -> None:
        """Drop the time slots no column's live range covers, once they are
        many and at least half the time column; each column's dead prefix
        goes with them."""
        times = self.times
        slots = len(times)
        for column in self.columns.values():
            # One live range alone leaves too few slots uncovered (the
            # collector's 15-day column covers its whole row).
            uncovered = slots - len(column._values) + column._head
            if uncovered < COMPACT_MIN or uncovered * 2 < slots:
                return
        spans = sorted(
            (column._base + column._head, column._base + len(column._values))
            for column in self.columns.values()
        )
        kept: List[List[int]] = []
        for start, end in spans:
            if kept and start <= kept[-1][1]:
                kept[-1][1] = max(kept[-1][1], end)
            else:
                kept.append([start, end])
        dropped = len(times) - sum(end - start for start, end in kept)
        if dropped < COMPACT_MIN or dropped * 2 < len(times):
            return
        starts = [start for start, __ in kept]
        moved = []  # the new slot of each kept span's first slot
        position = 0
        for start, end in kept:
            moved.append(position)
            position += end - start
        for column in self.columns.values():
            first = column._base + column._head
            span = bisect_right(starts, first) - 1
            head = column._head
            if head:
                del column._values[:head]
                column._gap_end = max(0, column._gap_end - head)
                column._head = 0
            column._base = moved[span] + first - starts[span]
        if len(kept) == 1:
            del times[:starts[0]]
        else:
            joined = array("d")
            for start, end in kept:
                joined.extend(times[start:end])
            times[:] = joined

    def __repr__(self) -> str:
        return f"MetricRow(slots={len(self.times)}, metrics={sorted(self.columns)})"

