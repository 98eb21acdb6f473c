"""Full-walk reference forms of the indexed / change-driven planes.

Production answers "which jobs need a sync plan", "what does the scaler
decide", "which (job, SLO) pairs can be burning", "what must this
refresh or standby tick do" and "what does this metric read" from state
kept where the fact changes. The forms here answer the same the slow,
obviously-right way, and exist only so tests have something to compare
against; nothing under ``repro`` outside this package may import them.

:func:`reference_forms` swaps seven of them into a whole platform at
once, the one oracle for every guard (``tests/integration/
test_reference_twin.py``): :class:`FullScanSyncer`, :class:`EagerTaskManager`,
:class:`EagerAutoScaler`, :class:`FullWalkSloTracker`,
:class:`FullReadSliEvaluator`, :class:`PollingStandbyPlane` and
:class:`PerMetricStore`. Kept tests use the forms where the twin cannot
reach: :class:`TimeSeries` (``tests/metrics/test_series.py``,
``tests/obs/test_slo.py`` with :func:`bad_fraction` and :func:`burn_rate`),
:class:`PerMetricStore` past two days (``tests/metrics/test_row_oracle.py``),
:func:`snapshot_job_store_read` (``tests/scaler/test_snapshot_equivalence.py``),
:func:`scan_primary_manager` and :func:`scan_hosting_managers`
(``tests/tasks/test_standby.py``) and :func:`step_container_per_call`
(``tests/tasks/test_step_equivalence.py``, ``test_fleet_step.py``,
``tests/scribe/test_column_store.py``).
"""

from __future__ import annotations

import importlib
import math
from array import array
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.errors import DegradedModeError
from repro.jobs.model import JobView
from repro.jobs.plan import ExecutionPlan
from repro.jobs.syncer import StateSyncer, SyncReport
from repro.metrics.store import DEFAULT_RETENTION
from repro.obs.sli import SliEvaluator
from repro.obs.slo import SloTracker
from repro.obs.trace import SLOT_SYMPTOM
from repro.scaler import proactive
from repro.scaler.plan_generator import ScalingDecision
from repro.scaler.proactive import AutoScaler
from repro.scaler.snapshot import (
    OOM_WINDOW,
    RATE_WINDOW,
    JobSnapshot,
    snapshot_job,
)
from repro.scribe.bus import ScribeBus
from repro.tasks.manager import TaskManager
from repro.tasks.runtime import (
    DEFAULT_OUTPUT_PARTITIONS,
    STATE_RESTORE_RATE_MB,
    RunningTask,
)
from repro.tasks.standby import StandbyPlane
from repro.types import JobId, Priority, Seconds, TaskId, TaskState, sum_in_order

__all__ = [
    "TimeSeries",
    "PerMetricStore",
    "scan_primary_manager",
    "scan_hosting_managers",
    "FullReadSliEvaluator",
    "bad_fraction",
    "burn_rate",
    "FullWalkSloTracker",
    "FullScanSyncer",
    "EagerAutoScaler",
    "PollingStandbyPlane",
    "EagerTaskManager",
    "reference_forms",
    "snapshot_job_store_read",
    "StepPlan",
    "desired_cores",
    "plan_step",
    "apply_step_plan",
    "step_container_per_call",
]


# ----------------------------------------------------------------------
# Per-metric storage: the metric row's oracle
# ----------------------------------------------------------------------
#: Compact a series' ring only when the dead prefix reaches this length
#: *and* is at least as long as the live suffix.
COMPACT_MIN = 64


class TimeSeries:
    """Append-only ``(time, value)`` samples with a retention horizon, each
    series with its own packed time array: what ``repro.metrics`` kept per
    ``(entity, metric)`` before a row shared one time column. Samples must
    arrive in non-decreasing time order. Trimming past the horizon advances
    a head index; the dead prefix is compacted once it is both long and at
    least as large as the live data. Every windowed read bisects the
    window and reduces the value slice in C."""

    __slots__ = (
        "retention", "_times", "_values", "_head", "compactions",
    )

    def __init__(self, retention: Optional[Seconds] = None) -> None:
        if retention is not None and retention <= 0:
            raise ValueError(f"retention must be positive: {retention}")
        self.retention = retention
        self._times = array("d")
        self._values = array("d")
        self._head = 0
        self.compactions = 0

    def __len__(self) -> int:
        return len(self._times) - self._head

    def record(self, time: Seconds, value: float) -> None:
        """Append a sample at ``time``."""
        times = self._times
        if times and time < times[-1]:
            raise ValueError(
                f"samples must be time-ordered: {time} < {times[-1]}"
            )
        times.append(time)
        self._values.append(float(value))
        retention = self.retention
        if retention is not None and times[self._head] < time - retention:
            self._trim(time - retention)

    def _trim(self, horizon: Seconds) -> None:
        new_head = bisect_left(self._times, horizon, self._head)
        self._head = new_head
        if new_head >= COMPACT_MIN and new_head * 2 >= len(self._times):
            del self._times[:new_head]
            del self._values[:new_head]
            self._head = 0
            self.compactions += 1

    def latest(self) -> Optional[float]:
        return self._values[-1] if len(self._times) > self._head else None

    def latest_time(self) -> Optional[Seconds]:
        return self._times[-1] if len(self._times) > self._head else None

    def earliest_time(self, since: Optional[Seconds] = None) -> Optional[Seconds]:
        times, head = self._times, self._head
        if since is not None:
            head = bisect_left(times, since, head)
        return times[head] if len(times) > head else None

    def _bounds(self, start: Seconds, end: Seconds) -> Tuple[int, int]:
        times, head = self._times, self._head
        return bisect_left(times, start, head), bisect_right(times, end, head)

    def window(self, start: Seconds, end: Seconds) -> List[Tuple[Seconds, float]]:
        lo, hi = self._bounds(start, end)
        return list(zip(self._times[lo:hi], self._values[lo:hi]))

    def values_in(self, start: Seconds, end: Seconds) -> List[float]:
        lo, hi = self._bounds(start, end)
        return self._values[lo:hi].tolist()

    def all_points(self) -> List[Tuple[Seconds, float]]:
        head = self._head
        return list(zip(self._times[head:], self._values[head:]))

    def average_over(self, duration: Seconds, now: Seconds) -> Optional[float]:
        lo, hi = self._bounds(now - duration, now)
        values = self._values[lo:hi]
        return math.fsum(values) / len(values) if values else None

    def aggregate_between(
        self, start: Seconds, end: Seconds
    ) -> Tuple[float, int, Optional[float]]:
        lo, hi = self._bounds(start, end)
        chunk = self._values[lo:hi]
        if not chunk:
            return 0.0, 0, None
        return math.fsum(chunk), len(chunk), max(chunk)

    def max_between(self, start: Seconds, end: Seconds) -> Optional[float]:
        lo, hi = self._bounds(start, end)
        return max(self._values[lo:hi]) if hi > lo else None

    def count_between(self, start: Seconds, end: Seconds) -> int:
        lo, hi = self._bounds(start, end)
        return hi - lo


class PerMetricStore:
    """``repro.metrics.MetricStore`` with one :class:`TimeSeries` per
    ``(entity, metric)`` under a tuple key, plus an entity index.
    The same writes (``record`` / ``record_row``, ``retain``,
    ``drop_entity``, ``fail`` / ``recover``) and reads (``row``, ``latest``,
    ``entities_with``); :meth:`series` creates what it does not find. It
    checks no value, so it also reads what the row refuses."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, str], TimeSeries] = {}
        self._entity_index: Dict[str, Dict[str, TimeSeries]] = {}
        self._retention: Dict[str, Seconds] = {}
        self.available = True
        self.dropped_points = 0
        self.samples_ingested = 0

    def fail(self) -> None:
        self.available = False

    def recover(self) -> None:
        self.available = True

    def retain(self, metric: str, retention: Seconds) -> None:
        self._retention[metric] = retention

    def series(
        self, entity: str, metric: str, retention: Optional[Seconds] = None
    ) -> TimeSeries:
        key = (entity, metric)
        existing = self._series.get(key)
        if existing is not None:
            return existing
        if retention is None:
            retention = self._retention.get(metric, DEFAULT_RETENTION)
        created = self._series[key] = TimeSeries(retention)
        self._entity_index.setdefault(entity, {})[metric] = created
        return created

    def drop_entity(self, entity: str) -> None:
        for metric in self._entity_index.pop(entity, {}):
            del self._series[(entity, metric)]

    def entities_with(self, metric: str) -> List[str]:
        return sorted(
            entity for entity, row in self._entity_index.items() if metric in row
        )

    def record(self, entity: str, metric: str, time: Seconds, value: float) -> int:
        return self.record_row(entity, time, (metric,), (value,))

    def record_row(
        self,
        entity: str,
        time: Seconds,
        metrics: Sequence[str],
        values: Sequence[Optional[float]],
    ) -> int:
        present = [
            (metric, value)
            for metric, value in zip(metrics, values) if value is not None
        ]
        if not self.available:
            self.dropped_points += len(present)
            return 0
        for metric, value in present:
            self.series(entity, metric).record(time, value)
        self.samples_ingested += len(present)
        return len(present)

    def row(self, entity: str) -> Dict[str, TimeSeries]:
        return self._entity_index.get(entity, {})

    def latest(self, entity: str, metric: str) -> Optional[float]:
        existing = self._series.get((entity, metric))
        return None if existing is None else existing.latest()

    def set_telemetry(self, telemetry) -> None:
        """Counts no ``metrics.ingest.*`` (no export reads them)."""

    def read_stats(self) -> Dict[str, int]:
        return {
            "series": len(self._series),
            "compactions": sum(s.compactions for s in self._series.values()),
        }


def scan_primary_manager(platform, task_id: TaskId):
    """The lowest-id live manager running ``task_id``, by fleet scan."""
    managers = platform.task_managers
    for container_id in sorted(managers):
        manager = managers[container_id]
        if manager.alive and task_id in manager.tasks:
            return manager
    return None


def scan_hosting_managers(shard_manager, job_id: JobId) -> List:
    """Every live manager holding a task or replica of ``job_id``, found
    by asking all of ``live_managers()`` — the managers on which
    ``stop_job_tasks(job_id)`` is not a no-op."""
    return [
        manager
        for manager in shard_manager.live_managers()
        if any(
            task.spec.job_id == job_id
            for task in list(manager.tasks.values())
            + list(manager.standbys.values())
        )
    ]


class FullReadSliEvaluator(SliEvaluator):
    """Runs the four-level config merge on every objective read."""

    def _view(self, job_id: JobId) -> JobView:
        return JobView.from_config(self._service.expected_config(job_id))


def bad_fraction(series, window: Seconds, now: Seconds) -> float:
    """Mean of the 0/1 bad samples over the trailing window (0 if empty);
    ``series`` is ``None`` for a pair never judged."""
    mean = None if series is None else series.average_over(window, now)
    return 0.0 if mean is None else mean


def burn_rate(series, window: Seconds, now: Seconds, target: float) -> float:
    """How many times faster than sustainable the budget is burning."""
    return bad_fraction(series, window, now) / (1.0 - target)


class FullWalkSloTracker(SloTracker):
    """Keeps every verdict as a 0/1 sample in one ``slo_bad.<spec>`` series
    per (job, SLO) in a private :class:`PerMetricStore` (production keeps one
    byte ledger per job), judges one pair at a time through ``job_sli`` —
    one store read per SLI — and reads both windows of every rule of every
    series every round; a forgotten job's not until it is next judged bad,
    as in production. Reports and burn reads are ``average_over`` calls on
    those series."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._store = PerMetricStore()
        self._forgotten: set = set()

    def forget_job(self, job_id: JobId) -> None:
        super().forget_job(job_id)
        self._forgotten.update((job_id, spec.name) for spec in self.specs)

    def evaluate_once(self) -> None:
        now = self._engine.now
        try:
            job_ids = self._sli.job_ids()
        except DegradedModeError:
            return
        self.evaluations += 1
        for job_id in job_ids:
            try:
                if not self._sli.running(job_id):
                    continue
                for index, spec in enumerate(self.specs):
                    verdict = self._judge(job_id, spec, now)
                    if verdict is None:
                        continue
                    metric = f"slo_bad.{spec.name}"
                    self._store.series(job_id, metric, retention=self._retention)
                    self._store.record(job_id, metric, now, verdict)
                    bad = verdict > 0.0
                    if bad:
                        self._last_bad[(job_id, index)] = now
                        self._forgotten.discard((job_id, spec.name))
                    self._track_breach(job_id, spec, bad=bad, now=now)
            except DegradedModeError:
                continue
        self._check_burn_rates(now)
        self._publish_telemetry(now)

    def _judge(self, job_id: JobId, spec, now: Seconds):
        """1.0 bad / 0.0 good, or ``None`` when the SLI has no data yet."""
        value = self._sli.job_sli(job_id, spec.sli, now)
        if value is None:
            return None
        threshold = (
            spec.threshold if spec.threshold is not None
            else self._sli.lag_slo_seconds(job_id)
        )
        return 0.0 if spec.is_good(value, threshold) else 1.0

    def _check_burn_rates(self, now: Seconds) -> None:
        for entity in self._known_entities():
            for spec in self.specs:
                series = self._store._series.get(
                    (entity, f"slo_bad.{spec.name}")
                )
                if series is None or (entity, spec.name) in self._forgotten:
                    continue
                for index, rule in enumerate(self.rules):
                    key = (entity, spec.name, index)
                    long_burn = burn_rate(series, rule.long_window, now, spec.target)
                    short_burn = burn_rate(series, rule.short_window, now, spec.target)
                    firing = (
                        long_burn >= rule.burn_threshold
                        and short_burn >= rule.burn_threshold
                    )
                    if not firing:
                        self._firing.discard(key)
                    elif key not in self._firing:
                        self._alert(entity, spec, rule, long_burn, now)
                        self._firing.add(key)

    def _known_entities(self) -> List[str]:
        entities = set()
        for spec in self.specs:
            entities.update(self._store.entities_with(f"slo_bad.{spec.name}"))
        return sorted(entities)

    def _judged_pairs(self) -> List[Tuple[JobId, int]]:
        return [
            (job_id, index)
            for job_id in self._known_entities()
            for index, spec in enumerate(self.specs)
            if (job_id, f"slo_bad.{spec.name}") in self._store._series
        ]

    def _bad_fraction(
        self, job_id: JobId, index: int, window: Seconds, now: Seconds
    ) -> float:
        series = self._store.row(job_id).get(f"slo_bad.{self.specs[index].name}")
        return bad_fraction(series, window, now)


class FullScanSyncer(StateSyncer):
    """Rescans the whole fleet every round, whatever the change feed says,
    and re-merges every job's config (no version stamp, no shared merge)."""

    def sync_once(self) -> SyncReport:
        self._rounds_since_full = float("inf")
        return super().sync_once()

    def _plan_for(self, job_id: JobId) -> Optional[ExecutionPlan]:
        return self._plan_from(job_id, self._store.merged_expected(job_id))


class EagerAutoScaler(AutoScaler):
    """The Auto Scaler with every stage run for every job: estimate, the
    quiet-window read (as a list of ``(t, v)`` over the whole window) and
    the plan generator, whatever the symptoms say. Only the P-hint guard
    is production's, since an estimate of a refused hint would raise."""

    def _evaluate_job(
        self, job_id: JobId, now: Seconds
    ) -> Optional[ScalingDecision]:
        view = self._service.view(job_id)
        category_name = view.input_category
        partitions = 0
        if category_name and category_name in self._scribe.categories:
            partitions = self._scribe.get_category(category_name).num_partitions
        snapshot = snapshot_job(
            job_id, view, self._metrics, now, input_partitions=partitions
        )
        if snapshot.running_tasks == 0 and snapshot.input_rate_mb == 0:
            return None
        symptoms = self.detector.detect(snapshot)
        if not symptoms.healthy:
            self._last_unhealthy[job_id] = now
        bootstrap = view.rate_per_thread_mb * proactive.BOOTSTRAP_ERROR
        self.analyzer.rate_per_thread(job_id, bootstrap)
        if symptoms.lagging:
            self.analyzer.observe_saturated_throughput(snapshot)
        rate = self.analyzer.rate_per_thread(job_id, bootstrap)
        trace = self._tracer.claim_context(job_id, SLOT_SYMPTOM)
        if rate is None:
            decision = self._refuse_hint(job_id, view, bootstrap, trace)
        else:
            decision = self.generator.decide(
                snapshot,
                symptoms,
                self.estimator.estimate(snapshot, rate),
                quiet_long_enough=self._quiet_over_the_window(snapshot),
                priority_floor=self.priority_floor,
                trace=trace,
            )
        self._apply(snapshot, decision)
        return decision

    def _quiet_over_the_window(self, snapshot: JobSnapshot) -> bool:
        now = snapshot.time
        window = self.config.downscale_after
        last_bad = self._last_unhealthy.get(snapshot.job_id)
        if last_bad is not None and now - last_bad < window:
            return False
        lag_series = self._metrics.row(snapshot.job_id).get("time_lagged")
        points = lag_series.window(now - window, now) if lag_series else ()
        if not points:
            return False
        if now - points[0][0] < window * 0.9:
            return False
        return max(value for __, value in points) <= (
            0.1 * snapshot.slo_lag_seconds
        )


class PollingStandbyPlane(StandbyPlane):
    """The standby plane reconciling in full every tick — the opted-in
    roster rebuilt from the spec table, every placement looked up, every
    primary's liveness read — whatever the versions of its inputs say."""

    def _tick(self) -> None:
        self._wanted_version = None
        self._reconcile(self._engine.now)


class EagerTaskManager(TaskManager):
    """The Task Manager reconciling every assigned shard at every
    refresh, whatever index object it last reconciled against and
    whatever it wrote since."""

    __slots__ = ()

    def _refresh(self) -> None:
        self._reconciled = None
        super()._refresh()


#: Where the platform looks up each class it builds, and the reference
#: form :func:`reference_forms` puts there.
REFERENCE_FORMS = (
    ("repro.platform", "StateSyncer", FullScanSyncer),
    ("repro.platform", "TaskManager", EagerTaskManager),
    ("repro.scaler.proactive", "AutoScaler", EagerAutoScaler),
    ("repro.obs.slo", "SloTracker", FullWalkSloTracker),
    ("repro.obs.sli", "SliEvaluator", FullReadSliEvaluator),
    ("repro.tasks.standby", "StandbyPlane", PollingStandbyPlane),
    ("repro.platform", "MetricStore", PerMetricStore),
)


@contextmanager
def reference_forms() -> Iterator[None]:
    """Build every platform made inside the block from the reference
    forms: each name in :data:`REFERENCE_FORMS` points at its reference
    class until the block exits. A run made inside it must export what
    the same run makes outside it — the whole-platform twin of every
    change-driven guard."""
    originals = []
    try:
        for module_name, name, form in REFERENCE_FORMS:
            module = importlib.import_module(module_name)
            originals.append((module, name, getattr(module, name)))
            setattr(module, name, form)
        yield
    finally:
        for module, name, original in reversed(originals):
            setattr(module, name, original)


def snapshot_job_store_read(
    job_id: JobId,
    view: JobView,
    metrics: PerMetricStore,
    now: Seconds,
    input_partitions: int = 0,
) -> JobSnapshot:
    """``scaler.snapshot.snapshot_job`` as one store call per number over a
    :class:`PerMetricStore`: six ``metrics.latest`` lookups and two
    ``metrics.series`` reads (which create the series they do not find)."""

    def latest(metric: str, default: float = 0.0) -> float:
        value = metrics.latest(job_id, metric)
        return default if value is None else value

    input_rate = metrics.series(job_id, "input_rate_mb").average_over(
        RATE_WINDOW, now
    )
    if input_rate is None:
        input_rate = latest("input_rate_mb")
    oom_series = metrics.series(job_id, "oom_events")
    return JobSnapshot(
        job_id=job_id,
        time=now,
        task_count=view.task_count,
        threads=view.threads,
        task_count_limit=view.task_count_limit,
        memory_per_task_gb=view.memory_per_task_gb,
        cpu_per_task=view.cpu_per_task,
        stateful=view.stateful,
        state_key_cardinality=view.state_key_cardinality,
        priority=Priority(view.priority),
        slo_lag_seconds=view.slo_lag_seconds,
        slo_recovery_seconds=view.slo_recovery_seconds,
        input_rate_mb=float(input_rate),
        processing_rate_mb=latest("processing_rate_mb"),
        backlog_mb=latest("bytes_lagged_mb"),
        time_lagged=latest("time_lagged"),
        task_rate_stdev=latest("task_rate_stdev"),
        oom_recently=bool(oom_series.values_in(now - OOM_WINDOW, now)),
        running_tasks=int(latest("running_tasks")),
        input_partitions=input_partitions,
    )


# ----------------------------------------------------------------------
# The per-call data-plane step (production: ``runtime.step_container``)
# ----------------------------------------------------------------------
class StepPlan(NamedTuple):
    """The outcome of one task step as data, applied by
    :func:`apply_step_plan`."""

    #: False for the not-running path (rates zeroed).
    ran: bool
    #: True when state restore consumed the whole step.
    restore_only: bool
    processed_mb: float
    #: ``(seq, new_offset)`` per drained partition, ``seq`` indexing the
    #: task's partition slice.
    commits: Tuple[Tuple[int, float], ...]
    new_restore_remaining_mb: float
    last_rate_mb: float
    last_cpu_used: float


IDLE_PLAN = StepPlan(False, False, 0.0, (), 0.0, 0.0, 0.0)


def desired_cores(task: RunningTask, dt: Seconds) -> float:
    """CPU cores ``task`` would burn next step, given its backlog."""
    if task.state != TaskState.RUNNING:
        return 0.0
    if task.restoring:
        return 1.0
    spec = task.spec
    checkpoints = task._scribe.checkpoints
    lagged = sum_in_order(
        partition.available(checkpoints.get(spec.job_id, partition.partition_id))
        for partition in task.partitions
    )
    desired_mb = min(spec.rate_per_thread_mb * spec.threads * dt, lagged)
    if spec.rate_per_thread_mb <= 0:
        return 0.0
    return (desired_mb / dt) / spec.rate_per_thread_mb


def partition_entries(task: RunningTask) -> List[Tuple[float, float]]:
    """``(readable_mb, committed_offset)`` per owned partition, in slice
    order."""
    checkpoints = task._scribe.checkpoints
    entries = []
    for partition in task.partitions:
        offset = checkpoints.get(task.spec.job_id, partition.partition_id)
        entries.append((partition.readable(offset), offset))
    return entries


def plan_task_step(
    entries: Sequence[Tuple[float, float]],
    dt: Seconds,
    throttle: float,
    restore_remaining_mb: float,
    max_rate_mb: float,
    rate_per_thread_mb: float,
) -> StepPlan:
    """Plan one running task's step from its :func:`partition_entries`."""
    throttle = min(1.0, max(0.0, throttle))
    if restore_remaining_mb > 1e-9:
        restored = min(restore_remaining_mb, STATE_RESTORE_RATE_MB * dt)
        restore_remaining_mb -= restored
        dt -= restored / STATE_RESTORE_RATE_MB
        if dt <= 1e-12:
            return StepPlan(True, True, 0.0, (), restore_remaining_mb, 0.0, 1.0)
    budget = max_rate_mb * dt * throttle
    per_partition_cap = rate_per_thread_mb * dt * throttle
    ordered = [
        (readable, seq, offset)
        for seq, (readable, offset) in enumerate(entries)
    ]
    ordered.sort(key=lambda entry: entry[0])
    processed = 0.0
    commits = []
    remaining = len(ordered)
    for available, seq, offset in ordered:
        if budget <= 1e-12:
            break
        consumed = min(available, budget / remaining, per_partition_cap)
        if consumed > 0:
            commits.append((seq, offset + consumed))
            processed += consumed
            budget -= consumed
        remaining -= 1
    last_rate_mb = processed / dt
    last_cpu_used = (
        last_rate_mb / rate_per_thread_mb if rate_per_thread_mb > 0 else 0.0
    )
    return StepPlan(
        True, False, processed, tuple(commits), restore_remaining_mb,
        last_rate_mb, last_cpu_used,
    )


def plan_step(task: RunningTask, dt: Seconds, throttle: float = 1.0) -> StepPlan:
    """Plan one step of ``task`` against the live partition state."""
    if task.state != TaskState.RUNNING:
        return IDLE_PLAN
    spec = task.spec
    return plan_task_step(
        partition_entries(task), dt, throttle, task.restore_remaining_mb,
        spec.rate_per_thread_mb * spec.threads, spec.rate_per_thread_mb,
    )


def apply_step_plan(task: RunningTask, plan: StepPlan, scribe: ScribeBus) -> float:
    """Apply ``plan``: checkpoint commits, downstream publish, usage, OOM
    state. Returns MB processed."""
    if not plan.ran:
        task.last_rate_mb = 0.0
        task.last_cpu_used = 0.0
        return 0.0
    task.restore_remaining_mb = plan.new_restore_remaining_mb
    task.last_rate_mb = plan.last_rate_mb
    task.last_cpu_used = plan.last_cpu_used
    if plan.restore_only:
        return 0.0
    spec = task.spec
    for seq, new_offset in plan.commits:
        scribe.checkpoints.commit(
            spec.job_id, task.partitions[seq].partition_id, new_offset
        )
    task.total_processed_mb += plan.processed_mb
    if plan.processed_mb > 0 and spec.output_category:
        scribe.ensure_category(
            spec.output_category, DEFAULT_OUTPUT_PARTITIONS
        ).append(plan.processed_mb * spec.output_ratio)
    reserved_gb = spec.resources.memory_gb
    if reserved_gb > 0 and task.memory_needed_gb() > reserved_gb:
        task.state = TaskState.CRASHED
        task.oom_count += 1
    return plan.processed_mb


def step_container_per_call(
    scribe: ScribeBus,
    primaries: Iterable[RunningTask],
    standbys: Iterable[RunningTask],
    dt: Seconds,
    cpu_capacity: float,
    slow_factor: float = 1.0,
) -> List[RunningTask]:
    """``runtime.step_container`` as one method call per task and per
    partition: sum the desired cores, throttle, then plan and apply each
    task in turn."""
    primaries, standbys = list(primaries), list(standbys)
    throttle = 1.0
    if cpu_capacity > 0:
        desired = sum_in_order(desired_cores(task, dt) for task in primaries)
        if standbys:
            desired += sum_in_order(desired_cores(task, dt) for task in standbys)
        if desired > cpu_capacity:
            throttle = cpu_capacity / desired
    throttle *= slow_factor
    oom_killed = []
    for task in primaries + standbys:
        was_running = task.state == TaskState.RUNNING
        apply_step_plan(task, plan_step(task, dt, throttle), scribe)
        if was_running and task.state == TaskState.CRASHED:
            oom_killed.append(task)
    return oom_killed
