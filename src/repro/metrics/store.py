"""The metric store: one row of columns per entity.

Entities are free-form strings — job ids, task ids, container ids, host ids
— so one store serves every layer. Each entity's metrics are one
:class:`~repro.metrics.row.MetricRow`: the values a writer lands at one
``now`` share one time slot, and each metric is a column of that row. A
column keeps :data:`DEFAULT_RETENTION` of samples unless its metric was
given its own with :meth:`MetricStore.retain` (the pattern analyzer's 14
days of input rates).

The store keeps one index, entity → row. It is the per-entity read path:
:meth:`row` hands a reader every column of one entity in one lookup, and
:meth:`drop_entity` forgets an entity in one pop. Only writes create
columns; no read does. Every write lands through :meth:`record_row` (the
stats collector's per-job round); :meth:`record` is its one-metric call.
It refuses a non-finite time or value before anything lands, drops the
row during an outage, and counts what it lands.
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.metrics.row import Column, MetricRow
from repro.types import Seconds

#: Column retention when none is specified: two days, enough for every
#: trailing-window read in the paper except the pattern analyzer's.
DEFAULT_RETENTION: Seconds = 2 * 24 * 3600.0

#: The row of an entity nobody has written to.
_NO_ROW: Mapping[str, Column] = MappingProxyType({})

_isfinite = math.isfinite


def _refuse(what: str, number) -> None:
    raise ValueError(f"{what} must be finite: {number!r}")


class MetricStore:
    """All metric rows in one cluster."""

    def __init__(self) -> None:
        #: The one index: entity -> its row.
        self._rows: Dict[str, MetricRow] = {}
        #: metric -> retention of the columns created for it from now on.
        self._retention: Dict[str, Seconds] = {}
        #: The ``record_row`` metric tuples already checked for repeats.
        self._row_shapes: Set[Tuple[str, ...]] = set()
        #: Optional telemetry sink (duck-typed ``.inc``, see
        #: :meth:`set_telemetry`); mechanism counters live under the
        #: ``metrics.*`` namespace, which the deterministic telemetry
        #: export excludes.
        self._telemetry = None
        #: When False the ingestion path is down: writes are dropped (a
        #: gap appears in every series) while reads keep serving whatever
        #: was recorded before — the realistic shape of a metric-store
        #: outage, and what makes scaler decisions run on stale data.
        self.available = True
        #: Samples dropped while unavailable (for reports and tests).
        self.dropped_points = 0
        #: Ingestion counters (introspection and benchmarks).
        self.samples_ingested = 0
        self.batches_ingested = 0

    def fail(self) -> None:
        """Begin an availability window: ingestion drops samples."""
        self.available = False

    def recover(self) -> None:
        """End the availability window."""
        self.available = True

    # ------------------------------------------------------------------
    # Rows and retention
    # ------------------------------------------------------------------
    def retain(self, metric: str, retention: Seconds) -> None:
        """Give every ``metric`` column created from now on ``retention``
        seconds of samples instead of :data:`DEFAULT_RETENTION`."""
        if not _isfinite(retention) or retention <= 0:
            raise ValueError(f"retention must be positive and finite: {retention!r}")
        self._retention[metric] = retention

    def drop_entity(self, entity: str) -> None:
        """Forget every column of a deleted entity."""
        self._rows.pop(entity, None)

    def entities_with(self, metric: str) -> List[str]:
        """All entities whose row holds ``metric`` (sorted; O(entities))."""
        return sorted(
            entity for entity, row in self._rows.items() if metric in row.columns
        )

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def record(self, entity: str, metric: str, time: Seconds, value: float) -> int:
        """Append one sample: a one-metric :meth:`record_row`."""
        return self.record_row(entity, time, (metric,), (value,))

    def record_row(
        self,
        entity: str,
        time: Seconds,
        metrics: Sequence[str],
        values: Sequence[Optional[float]],
    ) -> int:
        """Append one row: ``values[i]`` as ``metrics[i]`` at ``time``, in one
        time slot (``None``: the metric is absent from this row; no metric
        may be named twice). Returns the number of samples ingested (0
        while unavailable)."""
        if not _isfinite(time):
            _refuse("sample time", time)
        metrics = tuple(metrics)  # the same object when it is one
        if metrics not in self._row_shapes:
            if len(set(metrics)) != len(metrics):
                raise ValueError(f"a row names a metric twice: {metrics}")
            self._row_shapes.add(metrics)
        present = 0
        for value in values:
            if value is not None:
                if not _isfinite(value):
                    _refuse("sample value", value)
                present += 1
        if not self.available:
            self.dropped_points += present
            return 0
        row = self._rows.get(entity)
        if row is None:
            row = self._rows[entity] = MetricRow(self._retention, DEFAULT_RETENTION)
        landed = row.append(time, metrics, values)
        self.samples_ingested += landed
        self.batches_ingested += 1
        if self._telemetry is not None and landed:
            self._telemetry.inc("metrics.ingest.batches")
            self._telemetry.inc("metrics.ingest.samples", landed)
        return landed

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def row(self, entity: str) -> Mapping[str, Column]:
        """Every column of ``entity`` by metric name, in one lookup — empty
        for an entity nobody has written to (nothing is created). A
        per-job reader takes the row once a round and reads
        ``row.get("time_lagged")`` and friends off it; do not keep it
        across rounds (``drop_entity`` retires it)."""
        row = self._rows.get(entity)
        return _NO_ROW if row is None else row.columns

    def latest(self, entity: str, metric: str) -> Optional[float]:
        """Most recent value, or ``None`` if the metric is missing."""
        column = self.row(entity).get(metric)
        return None if column is None else column.latest()

    def set_telemetry(self, telemetry) -> None:
        """Attach a telemetry sink (the ``metrics.ingest.*`` counters)."""
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def read_stats(self) -> Dict[str, int]:
        """Aggregate per-row read/maintenance counters (for reports)."""
        stats = {
            "series": 0,
            "samples_ingested": self.samples_ingested,
            "batches_ingested": self.batches_ingested,
            "window_queries": 0,
            "compactions": 0,
        }
        for row in self._rows.values():
            stats["series"] += len(row.columns)
            stats["window_queries"] += row.times.window_queries
            stats["compactions"] += row.times.compactions
        return stats

    def __repr__(self) -> str:
        return f"MetricStore(rows={len(self._rows)})"
