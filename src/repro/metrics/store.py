"""The metric store: named series per (entity, metric) pair.

Entities are free-form strings — job ids, task ids, container ids, host ids
— so one store serves every layer. Series are created on first write with
:data:`DEFAULT_RETENTION`; callers with special needs (the pattern
analyzer's 14 days) pass an explicit retention at creation.

At fleet scale the store is on the simulation's hottest path, so it keeps
two inverted indexes — entity → its series by metric, and metric →
entities — updated on series creation/deletion, making ``entities_with``
and ``drop_entity`` O(answer) instead of O(all series), and offers
:meth:`record_many`, the batched ingestion path the task managers and
collectors use to land one coalesced sample set per engine event instead
of one store call per task. The first index is also the per-entity read
path: :meth:`row` hands a reader every series of one entity in one lookup.
Only writes create series; no read does.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from repro.metrics.series import TimeSeries
from repro.types import Seconds

#: Series retention when none is specified: two days, enough for every
#: trailing-window read in the paper except the pattern analyzer's.
DEFAULT_RETENTION: Seconds = 2 * 24 * 3600.0

#: The row of an entity nobody has written to.
_NO_ROW: Mapping[str, TimeSeries] = MappingProxyType({})


class MetricStore:
    """All time series in one cluster."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], TimeSeries] = {}
        #: Inverted indexes: entity -> {metric: series}, metric -> entities.
        self._entity_index: Dict[str, Dict[str, TimeSeries]] = {}
        self._metric_index: Dict[str, Set[str]] = {}
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
    # Series lifecycle
    # ------------------------------------------------------------------
    def series(
        self,
        entity: str,
        metric: str,
        retention: Optional[Seconds] = None,
    ) -> TimeSeries:
        """The series for ``(entity, metric)``, created on first use."""
        key = (entity, metric)
        existing = self._series.get(key)
        if existing is not None:
            return existing
        created = TimeSeries(
            retention if retention is not None else DEFAULT_RETENTION
        )
        self._series[key] = created
        self._entity_index.setdefault(entity, {})[metric] = created
        self._metric_index.setdefault(metric, set()).add(entity)
        return created

    def drop_entity(self, entity: str) -> None:
        """Forget every series of a deleted entity (O(its own series))."""
        metrics = self._entity_index.pop(entity, None)
        if not metrics:
            return
        for metric in metrics:
            del self._series[(entity, metric)]
            entities = self._metric_index.get(metric)
            if entities is not None:
                entities.discard(entity)
                if not entities:
                    del self._metric_index[metric]

    def entities_with(self, metric: str) -> List[str]:
        """All entities that have ever reported ``metric`` (sorted)."""
        return sorted(self._metric_index.get(metric, ()))

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def record(self, entity: str, metric: str, time: Seconds, value: float) -> None:
        """Append one sample (silently dropped while unavailable)."""
        if not self.available:
            self.dropped_points += 1
            return
        self.series(entity, metric).record(time, value)
        self.samples_ingested += 1

    def record_many(
        self, time: Seconds, samples: Iterable[Tuple[str, str, float]]
    ) -> int:
        """Append a batch of ``(entity, metric, value)`` samples at ``time``.

        The batched fast path: one availability check and one telemetry
        update for the whole batch, series resolved straight off the key
        dict. Callers coalesce per-entity sampling — the stats collector
        lands one round's derived job metrics in a single call. Returns
        the number of samples ingested (0 while unavailable).
        """
        if not self.available:
            self.dropped_points += sum(1 for _ in samples)
            return 0
        get = self._series.get
        count = 0
        for entity, metric, value in samples:
            series = get((entity, metric))
            if series is None:
                series = self.series(entity, metric)
            # TimeSeries.record, inlined: no Python call per sample.
            times = series._times
            if times and time < times[-1]:
                raise ValueError(
                    f"samples must be time-ordered: {time} < {times[-1]}"
                )
            times.append(time)
            series._values.append(float(value))
            retention = series.retention
            if retention is not None and times[series._head] < time - retention:
                series._trim(time - retention)
            count += 1
        self.samples_ingested += count
        self.batches_ingested += 1
        if self._telemetry is not None and count:
            self._telemetry.inc("metrics.ingest.batches")
            self._telemetry.inc("metrics.ingest.samples", count)
        return count

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def row(self, entity: str) -> Mapping[str, TimeSeries]:
        """Every series of ``entity`` by metric name, in one lookup — empty
        for an entity nobody has written to (nothing is created). A
        per-job reader takes the row once a round and reads
        ``row.get("time_lagged")`` and friends off it; do not keep it
        across rounds (``drop_entity`` retires it)."""
        return self._entity_index.get(entity, _NO_ROW)

    def latest(self, entity: str, metric: str) -> Optional[float]:
        """Most recent value, or ``None`` if the series is empty/missing."""
        existing = self._series.get((entity, metric))
        return None if existing is None else existing.latest()

    def set_telemetry(self, telemetry) -> None:
        """Attach a telemetry sink (the ``metrics.ingest.*`` counters)."""
        self._telemetry = telemetry

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def read_stats(self) -> Dict[str, int]:
        """Aggregate per-series read/maintenance counters (for reports)."""
        stats = {
            "series": len(self._series),
            "samples_ingested": self.samples_ingested,
            "batches_ingested": self.batches_ingested,
            "window_queries": 0,
            "compactions": 0,
        }
        for series in self._series.values():
            stats["window_queries"] += series.window_queries
            stats["compactions"] += series.compactions
        return stats

    def __repr__(self) -> str:
        return f"MetricStore(series={len(self._series)})"
