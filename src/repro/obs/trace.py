"""Causal decision traces for the control plane.

Every consequential control-plane decision — a detector symptom, a scaler
action, a Job Store write, a State Syncer plan, a shard movement — records
a :class:`TraceEvent`. Events are linked parent → child across layer
boundaries through small hand-off slots on the tracer (a symptom is the
parent of the scaling action it triggered; the resulting config write is
the parent of the sync plan that realizes it; the sync plan is the parent
of the task starts it causes), so ``chain(job_id)`` reconstructs the full
"why" for any configuration change after the fact.

Design constraints, in order:

* **Zero cost when disabled.** Every recording call starts with one
  attribute check and returns ``None``. The default tracer on every
  component is the shared disabled :data:`NULL_TRACER`.
* **No perturbation.** The tracer draws no randomness and schedules no
  simulation events; ids come from a plain counter and time from the
  simulated clock, so a traced run is byte-for-byte the same simulation
  as an untraced one and trace exports are deterministic across
  same-seed runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.obs.bounded import BoundedList
from repro.types import JobId

#: Default bound on retained events; old events are evicted first. Large
#: enough for any benchmark horizon, small enough to bound a soak test.
DEFAULT_MAX_EVENTS = 200_000

#: Hand-off slot names (documented here so the layers agree on them).
SLOT_SYMPTOM = "symptom"        # detector -> scaler
SLOT_WRITE_ORIGIN = "write"     # scaler/oncall -> Job Service
SLOT_CONFIG = "config"          # Job Service -> State Syncer
SLOT_SYNC = "sync"              # State Syncer -> actuator / Task Managers


@dataclass(frozen=True)
class TraceEvent:
    """One recorded decision, linked into a causal trace."""

    trace_id: str
    span_id: str
    parent_id: Optional[str]
    time: float
    source: str     # which service decided ("detector", "state-syncer", ...)
    kind: str       # short machine-readable tag ("symptom", "sync-plan", ...)
    job_id: Optional[str] = None
    detail: Tuple[Tuple[str, Any], ...] = ()

    def mentions_job(self, job_id: str) -> bool:
        """True when this event is about ``job_id`` (directly or via a
        ``jobs`` list in the detail, as shard movements carry)."""
        if self.job_id == job_id:
            return True
        for key, value in self.detail:
            if key == "jobs" and job_id in value:
                return True
        return False

    def to_json(self) -> str:
        payload = {
            "trace": self.trace_id,
            "span": self.span_id,
            "parent": self.parent_id,
            "t": self.time,
            "source": self.source,
            "kind": self.kind,
            "job": self.job_id,
            "detail": dict(self.detail),
        }
        return json.dumps(payload, sort_keys=True)

    def detail_str(self) -> str:
        return " ".join(f"{key}={value}" for key, value in self.detail)


class Tracer:
    """Mints deterministic trace/span ids and records decision events."""

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        enabled: bool = False,
        max_events: int = DEFAULT_MAX_EVENTS,
    ) -> None:
        self.enabled = enabled
        self._clock = clock or (lambda: 0.0)
        #: Bounded retention, same pattern as health reports/alerts: an
        #: endless soak evicts its oldest events in amortized-O(1) chunks
        #: while ``chain()``/``to_jsonl()`` keep working on the retained
        #: window (a real list, so slicing and equality behave normally).
        self.events: List[TraceEvent] = BoundedList(maxlen=max_events)
        self._span_counter = 0
        self._trace_counter = 0
        #: Hand-off slots: ``(job_id, slot) -> event``. A producer layer
        #: stores the event that should parent the next consumer-layer
        #: event for the job; consumers ``claim`` (pop) or ``peek`` it.
        self._job_context: Dict[Tuple[JobId, str], TraceEvent] = {}
        #: Shard-movement context: while a shard move is in flight the
        #: destination Task Manager's task starts parent onto it.
        self._shard_context: Dict[str, TraceEvent] = {}

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def record(
        self,
        source: str,
        kind: str,
        job_id: Optional[str] = None,
        parent: Optional[TraceEvent] = None,
        **detail: Any,
    ) -> Optional[TraceEvent]:
        """Record one event; returns ``None`` when tracing is disabled.

        With a ``parent`` the event joins the parent's trace; without one
        it roots a new trace. Detail values must be JSON-serializable.
        """
        if not self.enabled:
            return None
        self._span_counter += 1
        if parent is None:
            self._trace_counter += 1
            trace_id = f"T{self._trace_counter:06d}"
            parent_id = None
        else:
            trace_id = parent.trace_id
            parent_id = parent.span_id
        event = TraceEvent(
            trace_id=trace_id,
            span_id=f"s{self._span_counter:06d}",
            parent_id=parent_id,
            time=float(self._clock()),
            source=source,
            kind=kind,
            job_id=job_id,
            detail=tuple(sorted(detail.items())),
        )
        self.events.append(event)
        return event

    # ------------------------------------------------------------------
    # Cross-layer hand-off slots
    # ------------------------------------------------------------------
    def set_context(
        self, job_id: str, slot: str, event: Optional[TraceEvent]
    ) -> None:
        """Publish ``event`` as the pending cause for ``(job, slot)``."""
        if not self.enabled or event is None:
            return
        self._job_context[(job_id, slot)] = event

    def claim_context(self, job_id: str, slot: str) -> Optional[TraceEvent]:
        """Consume (pop) the pending cause for ``(job, slot)``."""
        if not self.enabled:
            return None
        return self._job_context.pop((job_id, slot), None)

    def peek_context(self, job_id: str, slot: str) -> Optional[TraceEvent]:
        """Read the pending cause without consuming it."""
        if not self.enabled:
            return None
        return self._job_context.get((job_id, slot))

    def forget_job(self, job_id: JobId) -> None:
        """Drop a deleted job's unclaimed hand-offs (``events`` stay)."""
        for slot in (SLOT_SYMPTOM, SLOT_WRITE_ORIGIN, SLOT_CONFIG, SLOT_SYNC):
            self._job_context.pop((job_id, slot), None)

    def held_jobs(self) -> Set[JobId]:
        return {job_id for job_id, __ in self._job_context}

    def set_shard_context(
        self, shard_id: str, event: Optional[TraceEvent]
    ) -> None:
        if not self.enabled or event is None:
            return
        self._shard_context[shard_id] = event

    def clear_shard_context(self, shard_id: str) -> None:
        if not self.enabled:
            return
        self._shard_context.pop(shard_id, None)

    def peek_shard_context(self, shard_id: str) -> Optional[TraceEvent]:
        if not self.enabled:
            return None
        return self._shard_context.get(shard_id)

    # ------------------------------------------------------------------
    # Reconstruction
    # ------------------------------------------------------------------
    def chain(self, job_id: str) -> List[TraceEvent]:
        """Every event about ``job_id`` plus the causal closure of their
        traces, in time order — the full "why" for the job's changes."""
        trace_ids = {
            event.trace_id
            for event in self.events
            if event.mentions_job(job_id)
        }
        return [
            event for event in self.events
            if event.trace_id in trace_ids
            and (event.mentions_job(job_id) or event.job_id is None)
        ]

    def render_chain(self, job_id: str) -> str:
        """An indented text rendering of :meth:`chain` (parents outdent)."""
        events = self.chain(job_id)
        if not events:
            return f"(no trace events recorded for {job_id})"
        by_span = {event.span_id: event for event in events}
        depths: Dict[str, int] = {}

        def depth_of(event: TraceEvent) -> int:
            if event.span_id in depths:
                return depths[event.span_id]
            parent = by_span.get(event.parent_id) if event.parent_id else None
            depth = 0 if parent is None else depth_of(parent) + 1
            depths[event.span_id] = depth
            return depth

        lines = []
        current_trace = None
        for event in events:
            if event.trace_id != current_trace:
                current_trace = event.trace_id
                lines.append(f"trace {event.trace_id}")
            indent = "  " * (depth_of(event) + 1)
            job = f" job={event.job_id}" if event.job_id else ""
            detail = event.detail_str()
            lines.append(
                f"{indent}[{event.time:10.1f}s] {event.source:14s} "
                f"{event.kind:20s}{job} {detail}".rstrip()
            )
        return "\n".join(lines)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_jsonl(self) -> str:
        """All events as JSON Lines (deterministic for a same-seed run)."""
        return "".join(event.to_json() + "\n" for event in self.events)

    def write_jsonl(self, path) -> None:
        from pathlib import Path

        Path(path).write_text(self.to_jsonl(), encoding="utf-8")

    @staticmethod
    def load_jsonl(text: str) -> List[TraceEvent]:
        """Parse :meth:`to_jsonl` output back into events."""
        events = []
        for line in text.splitlines():
            if not line.strip():
                continue
            payload = json.loads(line)
            events.append(
                TraceEvent(
                    trace_id=payload["trace"],
                    span_id=payload["span"],
                    parent_id=payload.get("parent"),
                    time=float(payload["t"]),
                    source=payload["source"],
                    kind=payload["kind"],
                    job_id=payload.get("job"),
                    detail=tuple(sorted(payload.get("detail", {}).items())),
                )
            )
        return events

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return f"Tracer({state}, events={len(self.events)})"


class _NullTracer(Tracer):
    """The shared always-disabled tracer components default to.

    ``enable()`` is a hard error: a component holding the shared null
    tracer must be given a real one instead (enabling the singleton would
    silently turn tracing on for every defaulted component at once).
    """

    def enable(self) -> None:
        raise RuntimeError(
            "NULL_TRACER is shared and cannot be enabled; "
            "construct a Tracer and pass it to the component instead"
        )


#: Shared disabled tracer: the default for every instrumented component.
NULL_TRACER = _NullTracer()


def chain_from_events(
    events: List[TraceEvent], job_id: str
) -> List[TraceEvent]:
    """:meth:`Tracer.chain` over a loaded (exported) event list."""
    tracer = Tracer(enabled=True)
    tracer.events.extend(events)
    return tracer.chain(job_id)


def render_chain_from_events(events: List[TraceEvent], job_id: str) -> str:
    """:meth:`Tracer.render_chain` over a loaded (exported) event list."""
    tracer = Tracer(enabled=True)
    tracer.events.extend(events)
    return tracer.render_chain(job_id)
