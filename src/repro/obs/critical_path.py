"""Critical-path analysis over causal decision traces.

A trace is a tree of :class:`~repro.obs.trace.TraceEvent` spans (parent →
child across layer boundaries). Each edge carries an implied duration —
the simulated time between the parent decision and the child decision it
caused — so the *critical path* of a trace is the root→leaf chain with
the largest total elapsed time: the sequence of hand-offs that made the
end-to-end reaction as slow as it was.

Two views are derived:

* the longest path itself, step by step with per-hop latency (``+Δt``);
* per-layer edge costs aggregated across every trace that mentions the
  job (``detector→auto-scaler``, ``job-service→state-syncer``, …), which
  answers the operator question "which layer of
  detector→scaler→store→syncer→managers cost the most".

Pure functions over exported or in-memory events; no platform access,
so the analysis works identically on a live tracer and on a JSONL file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.trace import TraceEvent, chain_from_events
from repro.types import Seconds, sum_in_order


@dataclass(frozen=True)
class PathStep:
    """One hop on a critical path."""

    event: TraceEvent
    elapsed: Seconds  # time since the previous step (0 for the root)


@dataclass(frozen=True)
class CriticalPath:
    """The longest root→leaf chain of one trace."""

    trace_id: str
    steps: Tuple[PathStep, ...]

    @property
    def total(self) -> Seconds:
        """End-to-end elapsed time along the path."""
        return sum_in_order(step.elapsed for step in self.steps)

    @property
    def edges(self) -> List[Tuple[str, Seconds]]:
        """``("<parent-source>-><child-source>", Δt)`` per hop."""
        labels = []
        for previous, step in zip(self.steps, self.steps[1:]):
            labels.append(
                (f"{previous.event.source}->{step.event.source}", step.elapsed)
            )
        return labels


def critical_paths(
    events: Sequence[TraceEvent], job_id: Optional[str] = None
) -> List[CriticalPath]:
    """The critical path of every trace in ``events``.

    With a ``job_id``, only traces in the job's causal closure (the same
    selection :meth:`~repro.obs.trace.Tracer.chain` makes) are analyzed.
    Traces arrive and are returned in first-seen order, so the output is
    deterministic for a deterministic event stream.
    """
    if job_id is not None:
        events = chain_from_events(list(events), job_id)
    by_trace: Dict[str, List[TraceEvent]] = {}
    for event in events:
        by_trace.setdefault(event.trace_id, []).append(event)
    return [
        _longest_path(trace_id, trace_events)
    for trace_id, trace_events in by_trace.items()]


def _longest_path(trace_id: str, events: List[TraceEvent]) -> CriticalPath:
    """DP over the span tree: longest elapsed-time chain from any root.

    Orphan spans (parent not in the selection — e.g. a filtered export)
    are treated as roots of their own subtree, so partial traces still
    analyze cleanly.
    """
    by_span = {event.span_id: event for event in events}
    children: Dict[Optional[str], List[TraceEvent]] = {}
    roots: List[TraceEvent] = []
    for event in events:
        if event.parent_id is None or event.parent_id not in by_span:
            roots.append(event)
        else:
            children.setdefault(event.parent_id, []).append(event)

    #: span_id -> (total elapsed of best suffix, steps of best suffix)
    best: Dict[str, Tuple[Seconds, Tuple[PathStep, ...]]] = {}

    def solve(event: TraceEvent) -> Tuple[Seconds, Tuple[PathStep, ...]]:
        cached = best.get(event.span_id)
        if cached is not None:
            return cached
        kids = children.get(event.span_id, ())
        winner: Tuple[Seconds, Tuple[PathStep, ...]] = (0.0, ())
        for kid in kids:
            elapsed = max(0.0, kid.time - event.time)
            suffix_total, suffix_steps = solve(kid)
            candidate = (
                elapsed + suffix_total,
                (PathStep(kid, elapsed),) + suffix_steps,
            )
            if candidate[0] > winner[0]:
                winner = candidate
        best[event.span_id] = winner
        return winner

    top: Tuple[Seconds, Tuple[PathStep, ...]] = (-1.0, ())
    top_root: Optional[TraceEvent] = None
    for root in roots:
        total, steps = solve(root)
        if total > top[0]:
            top = (total, steps)
            top_root = root
    assert top_root is not None  # a trace always has at least one root
    return CriticalPath(
        trace_id=trace_id,
        steps=(PathStep(top_root, 0.0),) + top[1],
    )


def layer_costs(
    paths: Sequence[CriticalPath],
) -> List[Tuple[str, Seconds, int]]:
    """Aggregate critical-path hops by layer edge.

    Returns ``(edge label, total seconds, hop count)`` rows sorted by
    total cost descending (ties broken by label for determinism).
    """
    totals: Dict[str, Seconds] = {}
    counts: Dict[str, int] = {}
    for path in paths:
        for label, elapsed in path.edges:
            totals[label] = totals.get(label, 0.0) + elapsed
            counts[label] = counts.get(label, 0) + 1
    return sorted(
        ((label, totals[label], counts[label]) for label in totals),
        key=lambda row: (-row[1], row[0]),
    )


def render_critical_path(
    events: Sequence[TraceEvent], job_id: str
) -> str:
    """The ``repro trace <job> --critical-path`` report."""
    from repro.analysis.report import Table

    paths = critical_paths(events, job_id)
    if not paths:
        return f"(no trace events recorded for {job_id})"
    slowest = max(paths, key=lambda path: path.total)
    lines = [
        f"slowest causal chain for {job_id}: trace {slowest.trace_id} "
        f"({slowest.total:.1f}s end to end, {len(slowest.steps)} spans)"
    ]
    for step in slowest.steps:
        event = step.event
        job = f" job={event.job_id}" if event.job_id else ""
        lines.append(
            f"  +{step.elapsed:8.1f}s {event.source:14s} "
            f"{event.kind:20s}{job} {event.detail_str()}".rstrip()
        )
    lines.append("")
    lines.append(f"layer costs across {len(paths)} trace(s):")
    table = Table(["edge", "total (s)", "hops", "mean (s)"])
    for label, total, count in layer_costs(paths):
        table.add_row(label, f"{total:.1f}", count, f"{total / count:.1f}")
    lines.append(table.render())
    return "\n".join(lines)
