"""Tracing from outside: spans around the calls into each layer.

Nothing under ``src/`` knows about this module. A traced run installs

(a) a :class:`Recorder` on the public ``engine.instrumentation`` hook — one
    root span per dispatched event, named by the ``Timer.name`` family with
    the container prefix stripped;
(b) timing wrappers around the coarse boundaries of :data:`BOUNDARIES`
    (at most ~1 call per task per tick), resolved by dotted name;
(c) count-only wrappers around the per-partition leaves.

Spans carry name, start, end and parent. They are aggregated in memory per
(boundary, root family) as count / busy / self; raw spans are kept for the
slowest root events only and everything is written out when the run ends.
A boundary that no longer exists is reported as ``null`` with a warning —
the benchmark keeps running when a later PR deletes or renames a layer.
"""

from __future__ import annotations

import heapq
import importlib
import re
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

#: Raw spans are kept for this many of the slowest root events ...
SLOWEST_ROOTS = 1000
#: ... and at most this many spans per root (a 4 096-task plane tick has
#: ~20 000; the aggregate still counts every one).
SPANS_PER_ROOT = 64

_CONTAINER_TIMER = re.compile(r"^[a-z]+-\d+-(?=[a-z])")


def family_of(callback) -> str:
    """Root-span name for one dispatched engine callback."""
    owner = getattr(callback, "__self__", None)
    name = getattr(owner, "name", "") if owner is not None else ""
    if name and type(owner).__name__ == "Timer":
        # "turbine-17-heartbeat" -> "container-heartbeat"
        return _CONTAINER_TIMER.sub("container-", name)
    qualname = getattr(callback, "__qualname__", type(callback).__name__)
    return "event:" + qualname.replace(".<locals>", "").replace(".<lambda>", "")


class Recorder:
    """Span stack, per-boundary aggregates, counters, slowest roots."""

    def __init__(self) -> None:
        #: Open spans, innermost last: ``[name, child_seconds, span_id]``.
        self.stack: List[list] = []
        #: ``(boundary, root family) -> [count, busy_s, self_s]``
        self.aggregate: Dict[Tuple[str, str], List[float]] = {}
        #: Count-only leaves and result-hook counters.
        self.counts: Dict[str, float] = {}
        self.family = "bench"
        self.events = 0
        self.queue_depth_max: Optional[int] = 0
        self._root_spans: Optional[list] = None
        self._slowest: list = []
        self._sequence = 0
        self.enabled = True

    # -- (a) the engine hook --------------------------------------------
    def record_event(self, engine, callback) -> None:
        """``engine.instrumentation`` protocol: dispatch one event."""
        if not self.enabled:
            callback()
            return
        heap = getattr(engine.queue, "_heap", None)
        if heap is None:
            self.queue_depth_max = None
        elif self.queue_depth_max is not None and len(heap) > self.queue_depth_max:
            self.queue_depth_max = len(heap)
        self.events += 1
        self.run_root(family_of(callback), callback)

    def run_root(self, family: str, fn: Callable[[], object], keep: bool = True):
        """Run ``fn`` as a root span of ``family``: wrapped boundaries
        reached from it aggregate under that family. The harness runs the
        engine loop and its own between-slice work through here too
        (``keep=False``: never a candidate for the slowest-roots list)."""
        outer_family, outer_spans = self.family, self._root_spans
        self.family = family
        spans = self._root_spans = [] if keep else None
        frame = [family, 0.0, 0]
        self.stack.append(frame)
        start = perf_counter()
        try:
            return fn()
        finally:
            end = perf_counter()
            self.stack.pop()
            busy = end - start
            entry = self.aggregate.get((family, family))
            if entry is None:
                entry = self.aggregate[(family, family)] = [0, 0.0, 0.0]
            entry[0] += 1
            entry[1] += busy
            entry[2] += busy - frame[1]
            if self.stack:
                self.stack[-1][1] += busy
            self.family, self._root_spans = outer_family, outer_spans
            if keep:
                self._keep_if_slow(family, start, end, spans)

    def _keep_if_slow(self, family, start, end, spans) -> None:
        self._sequence += 1
        item = (end - start, self._sequence, family, start, end, spans)
        if len(self._slowest) < SLOWEST_ROOTS:
            heapq.heappush(self._slowest, item)
        elif item[0] > self._slowest[0][0]:
            heapq.heapreplace(self._slowest, item)

    # -- (b) timing wrappers ---------------------------------------------
    def timed(self, name: str, fn, hook=None):
        """Wrap ``fn`` in a span named ``name``. A call made directly
        inside a span of the same name passes through untimed, so
        ``provision`` -> ``update`` counts as one write."""
        recorder = self
        stack = self.stack
        aggregate = self.aggregate

        def wrapper(*args, **kwargs):
            if not recorder.enabled or (stack and stack[-1][0] == name):
                return fn(*args, **kwargs)
            spans = recorder._root_spans
            parent = stack[-1] if stack else None
            span_id = 0
            if spans is not None and len(spans) < SPANS_PER_ROOT:
                spans.append(None)  # slot reserved in start order
                span_id = len(spans)
            frame = [name, 0.0, span_id]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                busy = end - start
                key = (name, recorder.family)
                entry = aggregate.get(key)
                if entry is None:
                    entry = aggregate[key] = [0, 0.0, 0.0]
                entry[0] += 1
                entry[1] += busy
                entry[2] += busy - frame[1]
                if parent is not None:
                    parent[1] += busy
                if span_id:
                    spans[span_id - 1] = (
                        name, start, end, parent[2] if parent is not None else 0
                    )
            if hook is not None:
                hook(recorder.counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- (c) count-only wrappers -------------------------------------------
    def counted(self, name: str, fn, hook=None):
        """Count calls of ``fn`` (and run ``hook`` on its result)."""
        recorder = self
        counts = self.counts
        counts.setdefault(name, 0)

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if recorder.enabled:
                counts[name] += 1
                if hook is not None:
                    hook(counts, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- reading -----------------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (set-up is not measured)."""
        self.aggregate.clear()
        for name in self.counts:
            self.counts[name] = 0
        self.events = 0
        if self.queue_depth_max is not None:
            self.queue_depth_max = 0
        self._slowest = []

    def _total(self, name: str, column: int) -> float:
        """One column of a boundary's aggregate, over every root family."""
        return sum(
            entry[column] for (boundary, _family), entry in self.aggregate.items()
            if boundary == name
        )

    def calls(self, name: str) -> int:
        return int(self._total(name, 0))

    def busy(self, name: str) -> float:
        return self._total(name, 1)

    def self_time(self, name: str) -> float:
        return self._total(name, 2)

    def export(self) -> Dict[str, object]:
        """The in-memory trace as plain data (written when the run ends)."""
        slowest = sorted(self._slowest, reverse=True)
        return {
            "aggregate": [
                {"boundary": name, "root_family": family, "count": int(e[0]),
                 "busy_s": e[1], "self_s": e[2]}
                for (name, family), e in sorted(self.aggregate.items())
            ],
            "counts": dict(sorted(self.counts.items())),
            "slowest_roots": [
                {
                    "family": family, "start": start, "end": end,
                    "spans": [
                        {"id": index + 1, "name": span[0], "start": span[1],
                         "end": span[2], "parent": span[3]}
                        for index, span in enumerate(spans) if span is not None
                    ],
                }
                for _busy, _seq, family, start, end, spans in slowest
            ],
        }


# ----------------------------------------------------------------------
# The one table of traced boundaries
# ----------------------------------------------------------------------
def _add(counts, name, value) -> None:
    counts[name] = counts.get(name, 0) + value


def _sync_report(counts, _args, report) -> None:
    _add(counts, "jobs.syncer.jobs_examined", getattr(report, "examined", 0))
    _add(counts, "jobs.syncer.full_scans",
         int(bool(getattr(report, "full_scan", False))
             and not getattr(report, "skipped", False)))
    _add(counts, "jobs.syncer.plans_failed", len(getattr(report, "failed", ())))


def _plan_ran(counts, _args, plan) -> None:
    _add(counts, "tasks.runtime.plan_calls", int(bool(getattr(plan, "ran", False))))


def _points(counts, _args, ingested) -> None:
    _add(counts, "metrics.points_recorded", ingested or 0)


def _one_point(counts, args, _result) -> None:
    store = args[0]
    _add(counts, "metrics.points_recorded", int(getattr(store, "available", True)))


def _placement(counts, args, _result) -> None:
    cache = args[0]
    for tier in ("hits", "repairs", "misses"):
        counts["tasks.balancer." + tier] = getattr(cache, tier, 0)


#: ``(dotted name, kind, span/counter name, result hook)``. "span" rows are
#: timed, "count" rows only counted. Several rows may share a span name
#: (one layer boundary reached through several methods).
BOUNDARIES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # tasks.runtime — per task per tick
    ("repro.tasks.runtime.RunningTask.desired_cores", "span", "tasks.runtime.plan", None),
    ("repro.tasks.runtime.RunningTask.plan_step", "span", "tasks.runtime.plan", _plan_ran),
    ("repro.tasks.manager.TaskManager.apply_data_plane_step", "span",
     "tasks.runtime.apply", None),
    # scribe
    ("repro.tasks.runtime.RunningTask.partition_entries", "span", "scribe.read", None),
    ("repro.tasks.runtime.RunningTask.bytes_lagged_mb", "span", "scribe.read", None),
    ("repro.scribe.category.Category.append", "span", "scribe.append", None),
    ("repro.scribe.partition.Partition.readable", "count",
     "scribe.partition.readable_calls", None),
    ("repro.scribe.partition.Partition.append", "count",
     "scribe.partition.append_calls", None),
    ("repro.scribe.checkpoints.CheckpointStore.get", "count",
     "scribe.checkpoints.get_calls", None),
    ("repro.scribe.checkpoints.CheckpointStore.commit", "count",
     "scribe.checkpoints.commit_calls", None),
    # metrics
    ("repro.metrics.store.MetricStore.record", "span", "metrics.ingest", _one_point),
    ("repro.metrics.store.MetricStore.record_many", "span", "metrics.ingest", _points),
    # jobs
    ("repro.jobs.syncer.StateSyncer.sync_once", "count", "jobs.syncer.rounds",
     _sync_report),
    ("repro.jobs.service.JobService.provision", "span", "jobs.service.write", None),
    ("repro.jobs.service.JobService.patch", "span", "jobs.service.write", None),
    ("repro.jobs.service.JobService.update", "span", "jobs.service.write", None),
    ("repro.jobs.service.JobService.deprovision", "span", "jobs.service.write", None),
    # tasks.shard_manager / tasks.balancer
    ("repro.tasks.shard_manager.ShardManager._move_shard", "count",
     "tasks.shard_manager.shard_moves", None),
    ("repro.tasks.shard_manager.ShardManager._fail_over_container", "count",
     "tasks.shard_manager.failovers", None),
    ("repro.tasks.balancer.PlacementCache.compute", "count",
     "tasks.balancer.rounds", _placement),
    # scaler
    ("repro.scaler.proactive.AutoScaler.run_once", "count", "scaler.rounds", None),
    # obs
    ("repro.obs.slo.SloTracker._judge", "count", "obs.slo.judgements", None),
)

#: Root families (timer names) per layer busy metric.
ROOT_FAMILIES: Dict[str, Tuple[str, ...]] = {
    "plane.tick_busy_s": ("data-plane-step",),
    "jobs.syncer.round_busy_s": ("state-syncer",),
    "tasks.manager.heartbeat_busy_s": ("container-heartbeat",),
    "tasks.manager.refresh_busy_s": ("container-refresh",),
    "tasks.manager.load_report_busy_s": ("container-load-report",),
    "tasks.shard_manager.failover_busy_s": ("shard-manager-failover",),
    "tasks.shard_manager.rebalance_busy_s": ("shard-manager-rebalance",),
    "tasks.stats.collect_busy_s": ("job-stats",),
    "tasks.checkpoint.busy_s": ("checkpoint-plane",),
    "tasks.standby.busy_s": ("standby-plane",),
    "tasks.slow_node.busy_s": ("slow-node-detector",),
    "scaler.round_busy_s": ("auto-scaler",),
    "obs.slo.eval_busy_s": ("slo-tracker",),
    "chaos.watch_busy_s": ("chaos-watch", "chaos-fine-watch"),
    "workloads.driver_busy_s": ("traffic-driver",),
}

#: Harness spans: the engine loop and the benchmark's own between-slice
#: work (polling, mutations, sampling).
RUN_SLICE = "bench.run-slice"
HARNESS = "bench.harness"


def _resolve(dotted: str):
    """``(owner, attribute name, function)`` or ``None`` when it is gone."""
    parts = dotted.split(".")
    for split in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        try:
            for part in parts[split:-1]:
                owner = getattr(owner, part)
            return owner, parts[-1], getattr(owner, parts[-1])
        except AttributeError:
            return None
    return None


class Installation:
    """Every wrapper of :data:`BOUNDARIES` installed on the program, around
    a fresh :class:`Recorder`; :meth:`uninstall` restores the program.

    Install before the platform is built: timers capture bound methods
    when they are armed.
    """

    def __init__(self) -> None:
        recorder = self.recorder = Recorder()
        #: Span / counter names whose boundary could not be resolved.
        self.missing: Dict[str, List[str]] = {}
        self._originals: list = []
        resolved_names = set()
        for dotted, kind, name, hook in BOUNDARIES:
            target = _resolve(dotted)
            if target is None:
                self.missing.setdefault(name, []).append(dotted)
                continue
            owner, attribute, function = target
            wrap = recorder.timed if kind == "span" else recorder.counted
            setattr(owner, attribute, wrap(name, function, hook))
            self._originals.append((owner, attribute, function))
            resolved_names.add(name)
        #: A span reached through several methods is only unresolved when
        #: every one of them is gone.
        self.unresolved = {
            name for name in self.missing if name not in resolved_names
        }

    def warnings(self) -> List[str]:
        return [
            f"traced boundary {dotted} no longer exists ({name})"
            for name, dotteds in sorted(self.missing.items())
            for dotted in dotteds
        ]

    def uninstall(self) -> None:
        for owner, attribute, function in reversed(self._originals):
            setattr(owner, attribute, function)
        self._originals = []


# ----------------------------------------------------------------------
# Trace -> the per-layer table
# ----------------------------------------------------------------------
def _since(records, since: float, stamp: str = "time") -> int:
    return sum(1 for record in records if getattr(record, stamp) >= since)


#: Counts read off the platform's public state when the run ends. Lists are
#: counted from the start of the measured phase by their own timestamps;
#: ``CUMULATIVE`` counters are reported as the difference to their value at
#: that start. An absent optional plane did no work: 0, not null.
PLATFORM_COUNTS: Dict[str, Callable[[object, float], float]] = {
    "tasks.runtime.oom_events": lambda p, since: sum(
        manager.oom_events for manager in p.task_managers.values()),
    "tasks.checkpoint.snapshots": lambda p, since: (
        p.checkpoint_plane.appends if p.checkpoint_plane else 0),
    "metrics.reads_streaming": lambda p, since: (
        p.metrics.read_stats()["window_fast"] + p.metrics.read_stats()["rollup_reads"]),
    "metrics.reads_naive": lambda p, since: (
        p.metrics.read_stats()["window_queries"] - p.metrics.read_stats()["window_fast"]),
    "tasks.standby.promotions": lambda p, since: (
        _since(p.standby.promotions, since) if p.standby else 0),
    "scaler.actions": lambda p, since: (
        _since(p.scaler.actions, since) if p.scaler else 0),
    "obs.slo.breach_windows": lambda p, since: _since(p.slo.breaches, since, "start"),
    "obs.trace.spans": lambda p, since: (
        _since(p.tracer.events, since) if p.tracer.enabled else 0),
    "chaos.faults_injected": lambda p, since: sum(
        1 for record in p.chaos.records
        if record.kind in ("inject", "action") and record.time >= since
    ) if p.chaos else 0,
}
CUMULATIVE = (
    "tasks.runtime.oom_events", "tasks.checkpoint.snapshots",
    "metrics.reads_streaming", "metrics.reads_naive",
)


def platform_counts(platform, since: float, warnings: Optional[List[str]] = None):
    """Every :data:`PLATFORM_COUNTS` entry; ``None`` where the attribute it
    reads no longer exists."""
    out: Dict[str, Optional[float]] = {}
    for name, read in PLATFORM_COUNTS.items():
        try:
            out[name] = read(platform, since)
        except (AttributeError, TypeError, KeyError) as error:
            out[name] = None
            if warnings is not None:
                warnings.append(f"{name}: platform attribute gone ({error})")
    return out


def layer_metrics(
    installation: Installation, platform, wall_s: float, since: float,
    baseline: Dict[str, Optional[float]],
) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """The traced part of the per-layer table (``host.cpu_share``, the
    trace overhead and the slice timings come from the untraced run and
    are filled in by the harness).

    ``since`` is the simulated time the measured phase started at and
    ``baseline`` the :func:`platform_counts` taken then. Returns
    ``(metrics, warnings)``; a metric whose boundary or platform attribute
    no longer exists is ``None``.
    """
    rec = installation.recorder
    gone = installation.unresolved
    warnings = installation.warnings()

    def span(name: str, read) -> Optional[float]:
        return None if name in gone else read(name)

    def count(name: str, boundary: Optional[str] = None) -> Optional[float]:
        return None if (boundary or name) in gone else rec.counts.get(name, 0)

    out: Dict[str, Optional[float]] = {
        metric: sum(rec.busy(family) for family in families)
        for metric, families in ROOT_FAMILIES.items()
    }
    # The benchmark's own between-slice work (mutations, polling) is load
    # generation too: its self time joins the in-sim traffic driver's.
    out["workloads.driver_busy_s"] += rec.self_time(HARNESS)

    tick_busy = out["plane.tick_busy_s"]
    tick_self = rec.self_time("data-plane-step")
    rounds = rec.counts.get("tasks.balancer.rounds", 0)
    out.update({
        "sim.engine.events": rec.events,
        "sim.engine.dispatch_self_s": rec.self_time(RUN_SLICE),
        "sim.engine.queue_depth_max": rec.queue_depth_max,
        "plane.ticks": rec.calls("data-plane-step"),
        "plane.tick_self_s": tick_self,
        "plane.coordinator_share": tick_self / tick_busy if tick_busy else 0.0,
        "tasks.runtime.plan_calls": count("tasks.runtime.plan_calls", "tasks.runtime.plan"),
        "tasks.runtime.plan_self_s": span("tasks.runtime.plan", rec.self_time),
        "tasks.runtime.apply_self_s": span("tasks.runtime.apply", rec.self_time),
        "scribe.read_busy_s": span("scribe.read", rec.busy),
        "scribe.append_busy_s": span("scribe.append", rec.busy),
        "metrics.ingest_busy_s": span("metrics.ingest", rec.busy),
        "metrics.points_recorded": count("metrics.points_recorded", "metrics.ingest"),
        "jobs.service.writes": span("jobs.service.write", rec.calls),
        "jobs.service.write_busy_s": span("jobs.service.write", rec.busy),
        "tasks.balancer.cache_hit_share": (
            None if "tasks.balancer.rounds" in gone
            else (rec.counts.get("tasks.balancer.hits", 0) / rounds if rounds else 0.0)
        ),
    })
    for name in (
        "scribe.partition.readable_calls", "scribe.partition.append_calls",
        "scribe.checkpoints.get_calls", "scribe.checkpoints.commit_calls",
        "jobs.syncer.rounds", "tasks.shard_manager.failovers",
        "tasks.shard_manager.shard_moves", "scaler.rounds", "obs.slo.judgements",
    ):
        out[name] = count(name)
    for name in ("jobs_examined", "full_scans", "plans_failed"):
        out[f"jobs.syncer.{name}"] = count(f"jobs.syncer.{name}", "jobs.syncer.rounds")

    try:
        out["plane.plan_skew"] = platform.data_plane.plan_skew
    except AttributeError as error:
        out["plane.plan_skew"] = None
        warnings.append(f"plane.plan_skew: platform attribute gone ({error})")
    for name, value in platform_counts(platform, since, warnings).items():
        before = baseline.get(name)
        if name in CUMULATIVE and value is not None and before is not None:
            value = max(0, value - before)
        out[name] = value
    fast, naive = out["metrics.reads_streaming"], out["metrics.reads_naive"]
    out["metrics.streaming_read_share"] = (
        None if fast is None or naive is None
        else (fast / (fast + naive) if fast + naive else 0.0)
    )

    # Host shares from the trace itself. Attributed = every root family the
    # table names + the engine's own dispatch + the harness; roots the table
    # does not name (one-shot events, the health reporter) are left over.
    roots = {
        family: entry[1] for (name, family), entry in rec.aggregate.items()
        if name == family and family not in (RUN_SLICE, HARNESS)
    }
    named = {family for families in ROOT_FAMILIES.values() for family in families}
    attributed = (
        sum(busy for family, busy in roots.items() if family in named)
        + rec.self_time(RUN_SLICE) + rec.busy(HARNESS)
    )
    control = sum(
        busy for family, busy in roots.items()
        if family not in ("data-plane-step", "traffic-driver")
    )
    out["host.control_plane_share"] = control / wall_s if wall_s else 0.0
    out["host.unattributed_share"] = (
        max(0.0, 1.0 - attributed / wall_s) if wall_s else 0.0
    )
    return out, warnings
