"""Control-plane telemetry: counters, gauges, and histograms.

The simulated data plane has its own metric store (``repro.metrics``);
this registry measures the *control plane itself* — how often each timer
fires and how long its callback takes (wall clock), how big sync-round
batches are, what a balancer round costs, how deep the event queue gets.
Wall-clock observations are real ``perf_counter`` readings and therefore
vary run to run; they never feed back into the simulation, so recording
them cannot perturb determinism.

The :class:`EngineInstrumentation` hook is the only piece on the hot
path: the engine dispatches every event through it when (and only when)
``engine.instrumentation`` is set, so an uninstrumented run pays a single
``is None`` check per event.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Dict, List, Optional


#: Default histogram bucket upper bounds (unit-agnostic; callers pick the
#: unit per instrument, e.g. milliseconds for wall-clock durations).
DEFAULT_BUCKETS = (
    0.01, 0.05, 0.1, 0.5, 1.0, 5.0, 10.0, 50.0, 100.0, 500.0, 1000.0,
)


#: The layer each periodic service's timer belongs to, by timer-name
#: family. :class:`EngineInstrumentation` records every firing once more
#: as ``layer.<layer>.wall_ms``: its count is the fires, count × mean the
#: busy time. ``tests/obs/test_timer_layers.py`` fails on a timer armed
#: under a name this table does not hold.
TIMER_LAYERS = {
    "data-plane-step": "plane", "traffic-driver": "driver",
    "container-heartbeat": "heartbeat", "container-refresh": "refresh",
    "container-load-report": "load-report",
    "shard-manager-failover": "failover",
    "shard-manager-rebalance": "rebalance",
    "job-stats": "stats", "state-syncer": "syncer", "slo-tracker": "slo",
    "auto-scaler": "scaler", "reactive-scaler": "scaler",
    "capacity-manager": "capacity", "health-reporter": "health",
    "checkpoint-plane": "checkpoint", "standby-plane": "standby",
    "slow-node-detector": "slow-node",
    "replication-lease": "replication", "replication-catchup": "replication",
    "chaos-watch": "chaos", "chaos-fine-watch": "chaos",
}

_CONTAINER_PREFIX = re.compile(r"^[a-z]+-\d+-(?=[a-z])")


def timer_family(name: str) -> str:
    """A timer name with its container stripped: ``turbine-17-refresh``
    reads as ``container-refresh``; any other name is its own family."""
    return _CONTAINER_PREFIX.sub("container-", name)


def is_deterministic_instrument(name: str) -> bool:
    """Whether an instrument is reproducible across same-seed runs.

    Three families are excluded from deterministic exports:

    * wall-clock measurements — by convention every such instrument name
      ends in ``_ms`` — which are real ``perf_counter`` readings and vary
      run to run;
    * ``cache.*`` instruments, which describe *how* the control plane
      computed a decision (dirty-set sizes, full scans), not what it
      decided. They legitimately differ between an incremental and a
      full-scan run of the same seed, while everything else must not;
    * ``metrics.*`` instruments — the metric store's self-observation
      (ingest batch counts and sizes), which describes how samples were
      landed, not what any layer decided.

    The SLO plane's ``slo.*``/``sli.*`` instruments are the opposite
    case and are kept explicitly: they are derived purely from simulated
    metrics through the metric store's window reads, so they
    belong in deterministic exports — except any wall-clock ``*_ms``
    member of those families, which stays excluded by the first rule.
    """
    if name.startswith(("slo.", "sli.")):
        return not name.endswith("_ms")
    return not (
        name.endswith("_ms")
        or name.startswith("cache.")
        or name.startswith("metrics.")
    )


@dataclass
class Gauge:
    """Last-write-wins value that also tracks its observed extremes."""

    value: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")
    updates: int = 0

    def set(self, value: float) -> None:
        self.value = value
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)
        self.updates += 1


@dataclass
class Histogram:
    """Fixed-bucket histogram with sum/min/max, good enough for p50/p95."""

    bounds: tuple = DEFAULT_BUCKETS
    counts: List[int] = field(default_factory=list)
    count: int = 0
    total: float = 0.0
    min_value: float = float("inf")
    max_value: float = float("-inf")

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = [0] * (len(self.bounds) + 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        self.min_value = min(self.min_value, value)
        self.max_value = max(self.max_value, value)
        for index, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def quantile(self, q: float) -> float:
        """Bucket-boundary estimate of the ``q`` quantile (0 < q < 1)."""
        if self.count == 0:
            return 0.0
        target = q * self.count
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            seen += bucket_count
            if seen >= target:
                if index < len(self.bounds):
                    return self.bounds[index]
                return self.max_value
        return self.max_value


class Telemetry:
    """A named registry of counters, gauges, and histograms."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.counters: Dict[str, float] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def inc(self, name: str, amount: float = 1.0) -> None:
        if not self.enabled:
            return
        self.counters[name] = self.counters.get(name, 0.0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        gauge = self.gauges.get(name)
        if gauge is None:
            gauge = self.gauges[name] = Gauge()
        gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        histogram = self.histograms.get(name)
        if histogram is None:
            histogram = self.histograms[name] = Histogram()
        histogram.observe(value)

    def counter(self, name: str) -> float:
        return self.counters.get(name, 0.0)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def snapshot(self, deterministic: bool = False) -> Dict[str, Any]:
        """A plain-dict view of every instrument (sorted names).

        With ``deterministic=True``, instruments that legitimately vary
        between same-seed runs (wall-clock ``*_ms`` readings and
        ``cache.*`` self-observation; see
        :func:`is_deterministic_instrument`) are dropped, so the result
        is byte-for-byte reproducible — including across runs that differ
        only in caching/incremental-computation strategy.
        """
        def keep(name: str) -> bool:
            return not deterministic or is_deterministic_instrument(name)

        return {
            "counters": {
                name: self.counters[name]
                for name in sorted(self.counters)
                if keep(name)
            },
            "gauges": {
                name: {
                    "value": gauge.value,
                    "min": gauge.min_value,
                    "max": gauge.max_value,
                    "updates": gauge.updates,
                }
                for name, gauge in sorted(self.gauges.items())
                if keep(name)
            },
            "histograms": {
                name: {
                    "count": hist.count,
                    "mean": hist.mean,
                    "min": hist.min_value,
                    "max": hist.max_value,
                    "p50": hist.quantile(0.50),
                    "p95": hist.quantile(0.95),
                }
                for name, hist in sorted(self.histograms.items())
                if keep(name)
            },
        }

    def to_jsonl(self, deterministic: bool = False) -> str:
        """One JSON line per instrument."""
        lines = []
        snapshot = self.snapshot(deterministic=deterministic)
        for name, value in snapshot["counters"].items():
            lines.append(json.dumps(
                {"type": "counter", "name": name, "value": value},
                sort_keys=True,
            ))
        for name, payload in snapshot["gauges"].items():
            lines.append(json.dumps(
                {"type": "gauge", "name": name, **payload}, sort_keys=True,
            ))
        for name, payload in snapshot["histograms"].items():
            lines.append(json.dumps(
                {"type": "histogram", "name": name, **payload},
                sort_keys=True,
            ))
        return "".join(line + "\n" for line in lines)

    def write_jsonl(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    def __repr__(self) -> str:
        return (
            f"Telemetry(counters={len(self.counters)}, "
            f"gauges={len(self.gauges)}, histograms={len(self.histograms)})"
        )


class _NullTelemetry(Telemetry):
    """Shared disabled registry; see :data:`NULL_TELEMETRY`."""

    def __init__(self) -> None:
        super().__init__(enabled=False)


#: Shared disabled registry: the default for every instrumented component.
NULL_TELEMETRY = _NullTelemetry()


class EngineInstrumentation:
    """Per-event engine hook: timer firing stats and callback durations.

    Install with ``engine.instrumentation = EngineInstrumentation(tel)``
    (or :meth:`Turbine.enable_instrumentation`). For every delivered event
    it records the total event count, the event-queue depth, and — when
    the callback is a named :class:`~repro.sim.engine.Timer` firing — a
    per-timer fire counter and wall-clock duration histogram, plus the
    same duration under its layer (:data:`TIMER_LAYERS`).
    """

    def __init__(self, telemetry: Telemetry) -> None:
        self.telemetry = telemetry

    def record_event(self, engine, callback) -> None:
        """Dispatch one event, timing the callback (called by the engine)."""
        start = perf_counter()
        try:
            callback()
        finally:
            wall_ms = (perf_counter() - start) * 1000.0
            telemetry = self.telemetry
            telemetry.inc("engine.events")
            # Heap length (O(1)) rather than the live count (O(n)); the
            # difference is lazily-cancelled events, which is itself
            # interesting for queue health.
            telemetry.set_gauge(
                "engine.queue_depth", float(len(engine.queue._heap))
            )
            name = self._timer_name(callback)
            if name:
                telemetry.inc(f"timer.{name}.fires")
                telemetry.observe(f"timer.{name}.wall_ms", wall_ms)
                layer = TIMER_LAYERS.get(timer_family(name))
                if layer is not None:
                    telemetry.observe(f"layer.{layer}.wall_ms", wall_ms)
            else:
                telemetry.observe("engine.callback_wall_ms", wall_ms)

    @staticmethod
    def _timer_name(callback) -> Optional[str]:
        from repro.sim.engine import Timer

        owner = getattr(callback, "__self__", None)
        if isinstance(owner, Timer) and owner.name:
            return owner.name
        return None
