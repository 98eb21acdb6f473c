"""Shared helpers for the metric-store tests."""

from collections import Counter
from contextlib import contextmanager

from repro.metrics.row import Column


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
