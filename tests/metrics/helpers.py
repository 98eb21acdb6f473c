"""Shared helpers for the metric-store tests."""

import sys
from collections import Counter
from contextlib import contextmanager

from repro.metrics.row import COMPACT_MIN, Column, MetricRow
from repro.metrics.store import DEFAULT_RETENTION, MetricStore


@contextmanager
def compactions_per_column():
    """Count, per column (by identity), the dead prefixes it drops while
    the block runs: a column keeps no counter of its own, but ``_put`` and
    ``_trim`` answer True exactly when it compacted."""
    counts = Counter()
    put, trim = Column._put, Column._trim

    def counted_put(self, slot, time, value):
        before = counts[id(self)]
        compacted = put(self, slot, time, value)
        if counts[id(self)] == before:  # not counted by the ``_trim`` it called
            counts[id(self)] += compacted
        return compacted

    def counted_trim(self, horizon):
        compacted = trim(self, horizon)
        counts[id(self)] += compacted
        return compacted

    Column._put, Column._trim = counted_put, counted_trim
    try:
        yield counts
    finally:
        Column._put, Column._trim = put, trim


@contextmanager
def trim_paths():
    """Count how the columns a row appends to retire samples while the
    block runs. ``inline``: ``MetricRow.append`` advanced a column's head
    itself. A ``Column._trim`` the append fell back to (not one
    ``Column._put`` called) counts as ``gap`` when every sample before
    the new one expired, ``pad`` when one sample leaves and a pad follows
    it, ``compaction`` when one leaves and the dead prefix is due, and
    ``other`` otherwise."""
    paths = Counter()
    put, trim, append = Column._put, Column._trim, MetricRow.append
    trimmed = set()

    def classified_put(column, slot, time, value):
        trimmed.add(id(column))
        return put(column, slot, time, value)

    def classified_trim(column, horizon):
        if id(column) not in trimmed:
            trimmed.add(id(column))
            times, values, base = column._times, column._values, column._base
            head = column._head + 1
            one_leaves = times[base + head] >= horizon
            if times[base + len(values) - 2] < horizon:
                paths["gap"] += 1
            elif one_leaves and values[head] != values[head]:
                paths["pad"] += 1
            elif one_leaves and head >= COMPACT_MIN and head * 2 >= len(values):
                paths["compaction"] += 1
            else:
                paths["other"] += 1
        return trim(column, horizon)

    def classified_append(row, time, metrics, values):
        def heads():
            return {
                metric: column._times[column._base + column._head]
                for metric, column in row.columns.items()
            }

        before = heads()
        trimmed.clear()
        landed = append(row, time, metrics, values)
        columns = row.columns
        paths["inline"] += sum(
            1 for metric, head in heads().items()
            if before.get(metric, head) != head
            and id(columns[metric]) not in trimmed
        )
        return landed

    Column._put, Column._trim = classified_put, classified_trim
    MetricRow.append = classified_append
    try:
        yield paths
    finally:
        Column._put, Column._trim, MetricRow.append = put, trim, append


#: Every windowed read of a column, and where its window starts; ``None``
#: for a read with no lower bound.
WINDOWED_READS = {
    "window": lambda start, end: start,
    "values_in": lambda start, end: start,
    "aggregate_between": lambda start, end: start,
    "max_between": lambda start, end: start,
    "count_between": lambda start, end: start,
    "average_over": lambda duration, now: now - duration,
    "earliest_time": lambda since=None: since,
    "all_points": lambda: None,
}


class ReadHorizons:
    """What :func:`read_horizons` saw: windowed reads by ``(reader,
    metric)``, and each read that started before its column's retention
    horizon as ``(reader, metric, start, horizon)``."""

    def __init__(self):
        self.reads = Counter()
        self.violations = []
        #: id(column) -> the metric ``MetricStore.row`` last named it.
        self.metrics = {}
        self.depth = 0

    def saw(self, column, start):
        frame = sys._getframe(2)  # past ``saw`` and the wrapper
        reader = f"{frame.f_globals.get('__name__')}.{frame.f_code.co_name}"
        metric = self.metrics.get(id(column))
        self.reads[reader, metric] += 1
        horizon = column.latest_time() - column.retention
        if start is None:
            if column.retention < DEFAULT_RETENTION:
                self.violations.append((reader, metric, start, horizon))
        elif start < horizon:
            self.violations.append((reader, metric, start, horizon))


@contextmanager
def read_horizons():
    """Check every windowed read of a metric column while the block runs.

    A column keeps every sample at or after its retention horizon, its
    newest sample time minus its retention, so a read whose window starts
    there or later returns what it would under any longer retention; one
    that starts earlier is a violation. A read with no lower bound
    (``earliest_time()``, ``all_points()``) sees the retention itself, so
    it is one unless the column keeps the store's default or longer. A
    read is attributed to the function that called it (reads a column
    makes of itself are not counted again) and a column to the metric
    :meth:`MetricStore.row` last handed it out under."""
    horizons = ReadHorizons()
    originals = {name: getattr(Column, name) for name in WINDOWED_READS}
    row = MetricStore.row

    def named_row(store, entity):
        columns = row(store, entity)
        for metric, column in columns.items():
            horizons.metrics[id(column)] = metric
        return columns

    def checked(name):
        read, start_of = originals[name], WINDOWED_READS[name]

        def checked_read(column, *args, **kwargs):
            if not horizons.depth:
                horizons.saw(column, start_of(*args, **kwargs))
            horizons.depth += 1
            try:
                return read(column, *args, **kwargs)
            finally:
                horizons.depth -= 1

        return checked_read

    MetricStore.row = named_row
    for name in WINDOWED_READS:
        setattr(Column, name, checked(name))
    try:
        yield horizons
    finally:
        MetricStore.row = row
        for name, read in originals.items():
            setattr(Column, name, read)
