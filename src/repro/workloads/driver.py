"""The traffic driver: pushes generated bytes into Scribe.

One driver serves any number of sources; each tick it evaluates every
source's rate function at the current simulated time and appends
``rate · dt`` MB to the source's category.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.metrics.store import MetricStore
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine, Timer
from repro.types import Seconds
from repro.workloads.diurnal import RateFn

#: Default tick: one minute, matching the metric collection cadence.
DEFAULT_TICK: Seconds = 60.0


@dataclass
class _Source:
    category_name: str
    rate_fn: RateFn
    total_appended_mb: float = 0.0


class TrafficDriver:
    """Appends workload-generated traffic to Scribe on the engine clock."""

    def __init__(
        self,
        engine: Engine,
        scribe: ScribeBus,
        tick: Seconds = DEFAULT_TICK,
        metrics: Optional[MetricStore] = None,
    ) -> None:
        if tick <= 0:
            raise ValueError(f"tick must be positive: {tick}")
        self._engine = engine
        self._scribe = scribe
        self._tick = tick
        #: Optional: record each source's offered rate per tick. All
        #: sources land in one coalesced ``record_many`` batch per tick
        #: event (entity = category name, metric = ``offered_rate_mb``).
        self._metrics = metrics
        self._sources: Dict[str, _Source] = {}
        self._last_time: Seconds = engine.now
        self._timer: Optional[Timer] = None

    def add_source(self, category_name: str, rate_fn: RateFn) -> None:
        """Attach a rate function to a category (one source per category)."""
        if category_name in self._sources:
            raise ValueError(f"category {category_name} already has a source")
        self._sources[category_name] = _Source(category_name, rate_fn)

    def remove_source(self, category_name: str) -> None:
        self._sources.pop(category_name, None)

    def start(self) -> None:
        """Arm the periodic tick."""
        if self._timer is None:
            self._last_time = self._engine.now
            self._timer = self._engine.every(
                self._tick, self._on_tick, name="traffic-driver"
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _on_tick(self) -> None:
        now = self._engine.now
        dt = now - self._last_time
        self._last_time = now
        if dt <= 0:
            return
        samples = [] if self._metrics is not None else None
        for source in self._sources.values():
            category = self._scribe.get_category(source.category_name)
            appended = max(0.0, source.rate_fn(now)) * dt
            category.append(appended)
            source.total_appended_mb += appended
            if samples is not None:
                samples.append(
                    (source.category_name, "offered_rate_mb", appended / dt)
                )
        if samples:
            self._metrics.record_many(now, samples)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def total_appended_mb(self, category_name: Optional[str] = None) -> float:
        """MB appended so far (for one category or all)."""
        if category_name is not None:
            source = self._sources.get(category_name)
            return source.total_appended_mb if source else 0.0
        return sum(s.total_appended_mb for s in self._sources.values())
