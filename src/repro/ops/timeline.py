"""Incident timelines: one chronological view across every service.

During an incident the operator's first question is "what happened, in
order?" — the answer is scattered across the State Syncer's alerts, the
Auto Scaler's actions and untriaged reports, the Shard Manager's failover
events, the Capacity Manager's events, and the failure injector's record.
This module merges them into a single ordered timeline (the paper's
section VII "tools that drill down into the root cause of the problem").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from repro.analysis.report import Table
from repro.types import Seconds

#: Trace kinds the dedicated collectors already cover; the trace collector
#: skips them so the timeline never shows the same decision twice.
_TRACE_KINDS_COVERED = ("job-quarantined", "failover")
_TRACE_SOURCES_COVERED = ("auto-scaler", "reactive-scaler")

#: ``(platform attribute, timeline source)`` of every plane that keeps its
#: incidents as :class:`~repro.types.IncidentRecord` in ``.events``. These
#: planes record incidents only (failovers, restores, promotions, drains —
#: never routine appends or placements), so a fault-free run contributes
#: nothing here and timelines stay byte-identical with a plane on or off.
_INCIDENT_PLANES = (
    ("capacity_manager", "capacity-manager"),
    ("replication", "replication"),
    ("checkpoint_plane", "checkpoint"),
    ("standby", "standby"),
    ("slow_nodes", "slow-node"),
)


@dataclass(frozen=True)
class TimelineEvent:
    """One event in the merged operator timeline."""

    time: Seconds
    source: str    # which service reported it
    kind: str      # short machine-readable tag
    detail: str

    def __str__(self) -> str:
        return f"[{self.time:10.1f}s] {self.source:15s} {self.kind:18s} {self.detail}"


class IncidentTimeline:
    """Collects events from a platform into one sorted view."""

    def __init__(self, platform) -> None:
        self._platform = platform

    def events(
        self,
        since: Seconds = 0.0,
        until: Optional[Seconds] = None,
        sources: Optional[Iterable[str]] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> List[TimelineEvent]:
        """Every known event in ``[since, until]``, time-ordered.

        ``sources`` keeps only events whose source matches exactly;
        ``kinds`` keeps events whose kind contains any given substring
        (so ``kinds=["action"]`` matches every scaler action).
        """
        if until is None:
            until = self._platform.now
        collected: List[TimelineEvent] = []
        collected.extend(self._syncer_events())
        collected.extend(self._scaler_events())
        collected.extend(self._failover_events())
        collected.extend(self._plane_events())
        collected.extend(self._failure_events())
        collected.extend(self._chaos_events())
        collected.extend(self._health_events())
        collected.extend(self._slo_events())
        collected.extend(self._trace_events())
        source_set = set(sources) if sources else None
        kind_list = list(kinds) if kinds else None
        return sorted(
            (
                event for event in collected
                if since <= event.time <= until
                and (source_set is None or event.source in source_set)
                and (kind_list is None
                     or any(k in event.kind for k in kind_list))
            ),
            key=lambda event: (event.time, event.source, event.detail),
        )

    def render(
        self,
        since: Seconds = 0.0,
        until: Optional[Seconds] = None,
        sources: Optional[Iterable[str]] = None,
        kinds: Optional[Iterable[str]] = None,
    ) -> str:
        """A fixed-width text timeline."""
        table = Table(["t (s)", "source", "kind", "detail"])
        for event in self.events(since, until, sources, kinds):
            table.add_row(
                f"{event.time:.1f}", event.source, event.kind, event.detail
            )
        return table.render()

    # ------------------------------------------------------------------
    # Collectors (each tolerant of a missing/unattached service)
    # ------------------------------------------------------------------
    def _syncer_events(self) -> List[TimelineEvent]:
        syncer = getattr(self._platform, "syncer", None)
        if syncer is None:
            return []
        return [
            TimelineEvent(time, "state-syncer", "quarantine",
                          f"{job_id}: {reason}")
            for time, job_id, reason in syncer.alerts
        ]

    def _scaler_events(self) -> List[TimelineEvent]:
        scaler = getattr(self._platform, "scaler", None)
        if scaler is None or not hasattr(scaler, "actions"):
            return []
        events = [
            TimelineEvent(
                action.time, "auto-scaler", action.action.value,
                f"{action.job_id}"
                + (f" -> {action.task_count} tasks" if action.task_count else ""),
            )
            for action in scaler.actions
        ]
        events.extend(
            TimelineEvent(report.time, "auto-scaler", "untriaged",
                          f"{report.job_id}: {report.reason}")
            for report in getattr(scaler, "untriaged", [])
        )
        return events

    def _failover_events(self) -> List[TimelineEvent]:
        shard_manager = getattr(self._platform, "shard_manager", None)
        if shard_manager is None:
            return []
        return [
            TimelineEvent(event.time, "shard-manager", "failover",
                          f"{event.container_id} ({event.shards_moved} shards)")
            for event in shard_manager.failover_events
        ]

    def _plane_events(self) -> List[TimelineEvent]:
        """The incident records of every attached :data:`_INCIDENT_PLANES`
        plane, labelled with the plane's source."""
        events: List[TimelineEvent] = []
        for attribute, source in _INCIDENT_PLANES:
            plane = getattr(self._platform, attribute, None)
            if plane is not None:
                events.extend(
                    TimelineEvent(record.time, source, record.kind,
                                  record.detail)
                    for record in plane.events
                )
        return events

    def _failure_events(self) -> List[TimelineEvent]:
        failures = getattr(self._platform, "failures", None)
        if failures is None:
            return []
        return [
            TimelineEvent(
                record.time, "cluster", f"host-{record.kind}",
                record.host_id
                + (f" [{record.label}]" if getattr(record, "label", "") else ""),
            )
            for record in failures.history
        ]

    def _chaos_events(self) -> List[TimelineEvent]:
        chaos = getattr(self._platform, "chaos", None)
        if chaos is None:
            return []
        return [
            TimelineEvent(record.time, "chaos", record.kind,
                          f"{record.target} [{record.scenario}]"
                          + (f": {record.detail}" if record.detail else ""))
            for record in chaos.records
        ]

    def _health_events(self) -> List[TimelineEvent]:
        health = getattr(self._platform, "health", None)
        if health is None:
            return []
        return [
            TimelineEvent(alert.time, "health", f"alert-{alert.severity}",
                          f"{alert.what} (runbook: {alert.runbook})")
            for alert in health.alerts
        ]

    def _slo_events(self) -> List[TimelineEvent]:
        """Burn-rate alerts and closed breach windows from the SLO plane."""
        slo = getattr(self._platform, "slo", None)
        if slo is None:
            return []
        events = [
            TimelineEvent(alert.time, "slo", f"burn-{alert.severity}",
                          f"{alert.what} (runbook: {alert.runbook})")
            for alert in slo.alerts
        ]
        events.extend(
            TimelineEvent(breach.end, "slo", "breach-closed",
                          f"{breach.job_id} {breach.slo} "
                          f"({breach.duration(breach.end):.0f}s)")
            for breach in slo.breaches
            if breach.end is not None
        )
        return events

    def _trace_events(self) -> List[TimelineEvent]:
        """Causal trace events, minus what other collectors already show."""
        tracer = getattr(self._platform, "tracer", None)
        if tracer is None or not getattr(tracer, "enabled", False):
            return []
        events = []
        for event in tracer.events:
            if event.source in _TRACE_SOURCES_COVERED:
                continue  # scaler actions come from the scaler collector
            if event.kind in _TRACE_KINDS_COVERED:
                continue  # quarantines/failovers have dedicated collectors
            job = f"{event.job_id} " if event.job_id else ""
            events.append(
                TimelineEvent(event.time, event.source, event.kind,
                              f"{job}{event.detail_str()}".strip())
            )
        return events
