"""The local Task Manager.

"Each Turbine Container runs a local Task Manager that spawns a subset of
stream processing tasks within that container." (paper section IV). The
manager:

* refreshes the task-spec snapshot (the Task Service's shard index) every
  60 seconds and reconciles the tasks of its assigned shards whose specs
  changed (start / stop / restart on settings change, restart on crash);
* answers the Shard Manager's ADD_SHARD / DROP_SHARD requests;
* heartbeats to the Shard Manager (the platform's single
  ``container-heartbeat`` timer runs :func:`heartbeat_managers` over the
  fleet) and — if its connection is broken for longer than the 40-second
  connection timeout — reboots itself *before* the Shard Manager's
  60-second fail-over can create a duplicate elsewhere (section IV-C);
* has its tasks' data-plane processing stepped (the platform's single
  ``data-plane-step`` timer runs :func:`step_managers` over the fleet) and
  aggregates per-shard loads, reporting them to the Shard Manager every
  ten minutes.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.cluster.container import TurbineContainer
from repro.cluster.resources import ResourceVector
from repro.errors import DegradedModeError, ServiceUnavailableError
from repro.metrics.store import MetricStore
from repro.obs.telemetry import Telemetry
from repro.obs.trace import NULL_TRACER, SLOT_SYNC, Tracer
from repro.resilience import Dependency
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine, Timer
from repro.sim.events import Event
from repro.tasks.runtime import RunningTask, step_container
from repro.tasks.service import TaskService
from repro.tasks.shard_manager import ShardManager
from repro.tasks.spec import TaskSpec
from repro.types import (
    ContainerId,
    JobId,
    Seconds,
    ShardId,
    TaskId,
    TaskState,
)

#: "Each task manager has a local refresh thread to periodically (every 60
#: seconds) fetch from the Task Service."
REFRESH_INTERVAL: Seconds = 60.0

#: "timeout is configured to 40 seconds, fail-over is 60 seconds". Read
#: at each heartbeat, so a test patches the module constant to run a
#: manager past the fail-over (90 s shows the duplicate it prevents).
CONNECTION_TIMEOUT: Seconds = 40.0

#: Heartbeat period (must be well under the connection timeout).
HEARTBEAT_INTERVAL: Seconds = 10.0

#: "This refreshed shard load is reported to the Shard Manager every ten
#: minutes."
LOAD_REPORT_INTERVAL: Seconds = 600.0


def manager_edges(telemetry: Optional[Telemetry]) -> Tuple[Dependency, Dependency]:
    """The counted edges from Task Managers to the Shard Manager and to
    the Task Service. An edge holds no per-manager state (its counters
    aggregate fleet-wide under one name per target), so a platform builds
    one pair and hands it to every manager it spawns."""
    return (
        Dependency("task-manager.shard-manager", telemetry),
        Dependency("task-manager.task-service", telemetry),
    )


def step_managers(
    scribe: ScribeBus, managers: Iterable["TaskManager"], now: Seconds
) -> None:
    """One data-plane tick of the fleet: every live manager's container,
    once, in the order given (spawn order), so a task's commits and
    downstream publishes are visible to every task stepped after it in
    the same tick.

    Per manager this loop owns the step clock, the liveness check and the
    contention decision: a container whose hosted threads fit inside its
    CPU limit is stepped with no limit, since no task wants more cores
    than it has threads (a restoring one wants one) — the contention
    pass could only answer "no throttle". The margin keeps that exact:
    rounding can lift a saturated task's demand a few ulps above its
    thread count. The step itself is
    :func:`~repro.tasks.runtime.step_container`; the manager's own part
    (:meth:`TaskManager._after_step`) runs only when it has work.
    """
    for manager in managers:
        dt = now - manager._last_step_time
        manager._last_step_time = now
        container = manager.container
        if not container.alive or dt <= 0:
            continue
        cpu = container.capacity.cpu
        oom_killed = step_container(
            scribe, manager.tasks.values(), manager.standbys.values(), dt,
            cpu if manager._hosted_threads > cpu * (1.0 - 1e-9) else 0.0,
            manager.slow_factor,
        )
        if oom_killed or manager._failed_at:
            manager._after_step(now, oom_killed)


def heartbeat_managers(
    shard_manager: ShardManager, managers: Dict[ContainerId, "TaskManager"]
) -> None:
    """One heartbeat round of the fleet (the platform's single
    ``container-heartbeat`` timer): every manager in ``managers``
    (``container id -> manager``), in the order given (spawn order).

    While the Shard Manager is up, one :meth:`ShardManager.heartbeat_many`
    call delivers the heartbeat of every live, reachable, registered
    manager. A dead, partitioned or unregistered manager, and every
    manager during an outage, takes its own path
    (:meth:`TaskManager._heartbeat_tick`), in order. A delivered
    heartbeat has no effect an own path can see, so the split keeps the
    order of everything observable.
    """
    if not shard_manager.available:
        for manager in managers.values():
            manager._heartbeat_tick()
        return
    own_path = shard_manager.heartbeat_many(managers)
    delivered = len(managers) - len(own_path)
    if delivered:
        next(iter(managers.values()))._sm_dep.count_calls(delivered)
        skip = set(own_path)
        for manager in managers.values():
            if manager not in skip:
                manager._outage_started = None
    for manager in own_path:
        manager._heartbeat_tick()


class TaskManager:
    """Runs the tasks of the shards assigned to one Turbine container.

    Slotted: a platform keeps one manager per container, and with more
    than 30 instance attributes CPython gives each instance a private
    ``__dict__`` (no shared-key table), 1.6 KB a manager on 3.11.
    """

    __slots__ = (
        "_tracer", "_engine", "container", "_service", "_shard_manager",
        "_scribe", "_metrics", "_heartbeat_interval", "assigned_shards",
        "tasks", "standbys", "_task_hosts", "_walked", "slow_factor",
        "standby_plane", "checkpoint_plane", "_failed_at", "_index",
        "_index_fetched_at", "_sm_dep", "_ts_dep", "_telemetry",
        "_reconnect", "partitioned", "slow_drop", "slow_add",
        "_outage_started", "_last_step_time", "_hosted_threads",
        "reboot_count", "oom_events", "_timers",
    )

    def __init__(
        self,
        engine: Engine,
        container: TurbineContainer,
        task_service: TaskService,
        shard_manager: ShardManager,
        scribe: ScribeBus,
        metrics: Optional[MetricStore] = None,
        heartbeat_interval: Seconds = HEARTBEAT_INTERVAL,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
        task_hosts: Optional[Dict[JobId, Dict[TaskId, Tuple[ContainerId, ...]]]] = None,
        edges: Optional[Tuple[Dependency, Dependency]] = None,
    ) -> None:
        self._tracer = tracer or NULL_TRACER
        self._engine = engine
        self.container = container
        self._service = task_service
        self._shard_manager = shard_manager
        self._scribe = scribe
        self._metrics = metrics
        self._heartbeat_interval = heartbeat_interval

        self.assigned_shards: set = set()
        #: Primaries hosted here (each carries its ``shard_id``), in start
        #: order — which is the step order and the float-sum order of the
        #: contention throttle.
        self.tasks: Dict[TaskId, RunningTask] = {}
        #: Hot-standby replicas hosted here, keyed by the primary's task
        #: id. Kept out of ``tasks`` on purpose: standbys have no shard
        #: assignment, so reconciliation and load reporting must never
        #: see them (a passive replica is invisible to the control plane
        #: until the standby plane promotes it).
        self.standbys: Dict[TaskId, RunningTask] = {}
        #: The fleet's task-location index, shared by every manager of a
        #: platform: ``job -> task id -> containers`` hosting the id in
        #: ``tasks`` or ``standbys``, as a tuple (48 B for the usual one
        #: host, where a set takes 216 B). Written only where those two dicts
        #: are written (:meth:`_host` / :meth:`_unhost`), so a reader
        #: never has to scan the fleet to find one task. A killed
        #: container keeps its entries until :meth:`shutdown` or
        #: :meth:`reboot` (it keeps its ``tasks`` too): readers check
        #: liveness at lookup.
        self._task_hosts = task_hosts if task_hosts is not None else {}
        #: The shard index the last walk of the assigned shards ran
        #: against: each of them matches its entry there. ``None`` once
        #: anything a reconcile reads here changed since (:meth:`_changed`).
        self._walked: Optional[Dict[ShardId, Dict[TaskId, TaskSpec]]] = None
        #: Gray-failure model: a slow node degrades every task's
        #: throughput by this factor without failing a single health
        #: check (heartbeats keep flowing). 1.0 = healthy.
        self.slow_factor = 1.0
        #: Optional resiliency planes, wired by the platform when the
        #: corresponding features are enabled.
        self.standby_plane = None
        self.checkpoint_plane = None
        #: When each task last failed, for the task.recovery_lag SLI
        #: (failure -> first post-recovery progress sample). A window
        #: belongs to a hosted id and leaves with it (:meth:`_unhost`).
        self._failed_at: Dict[TaskId, Seconds] = {}
        #: Last-known-good shard index and when it was fetched, for
        #: degraded-mode operation ("containers run tasks based on
        #: existing snapshots", IV-D); None until the first fetch.
        self._index: Optional[Dict[ShardId, Dict[TaskId, TaskSpec]]] = None
        self._index_fetched_at: Seconds = 0.0
        #: Counted edges toward the two control-plane services this
        #: manager calls (:func:`manager_edges`; the platform's are shared
        #: by its whole fleet).
        self._sm_dep, self._ts_dep = edges or manager_edges(telemetry)
        self._telemetry = telemetry
        #: The pending attempt of this manager's one reconnect loop.
        self._reconnect: Optional[Event] = None
        #: Simulated network partition toward the Shard Manager.
        self.partitioned = False
        #: Test hooks: make DROP_SHARD / ADD_SHARD hang (raise TimeoutError).
        self.slow_drop = False
        self.slow_add = False
        self._outage_started: Optional[Seconds] = None
        self._last_step_time: Seconds = engine.now
        #: ``spec.threads`` summed over ``tasks`` and ``standbys``: a bound
        #: on the threads running here, kept by :meth:`_host` /
        #: :meth:`_unhost` (specs are immutable), so the step knows
        #: without a pass over the tasks when the cgroup cannot saturate.
        self._hosted_threads = 0
        self.reboot_count = 0
        self.oom_events = 0
        self._timers: List[Timer] = []

    # ------------------------------------------------------------------
    # Identity and liveness
    # ------------------------------------------------------------------
    @property
    def container_id(self) -> str:
        return self.container.container_id

    @property
    def capacity(self) -> ResourceVector:
        return self.container.capacity

    @property
    def alive(self) -> bool:
        return self.container.alive

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Register with the Shard Manager and arm the jittered periodic
        timers (the heartbeat is the platform's fleet round,
        :func:`heartbeat_managers`).

        When the Shard Manager is in an availability window the
        registration is deferred to the reconnect loop — the timers still
        arm, so the container is fully functional the moment it manages
        to register.
        """
        try:
            self._sm_dep.call(self._shard_manager.register_container, self)
        except ServiceUnavailableError:
            self._schedule_reconnect()
        if self._timers:
            return
        jitter = self._engine.rng.fork(self.container_id)
        refresh = self._engine.every(
            REFRESH_INTERVAL, self._refresh, name=f"{self.container_id}-refresh",
            initial_delay=jitter.uniform(0, REFRESH_INTERVAL),
        )
        load_report = self._engine.every(
            LOAD_REPORT_INTERVAL, self._report_loads,
            name=f"{self.container_id}-load-report",
            initial_delay=jitter.uniform(0, LOAD_REPORT_INTERVAL),
        )
        self._timers = [refresh, load_report]

    def shutdown(self) -> None:
        """Stop all timers and tasks (container decommission)."""
        for timer in self._timers:
            timer.cancel()
        self._timers.clear()
        self._unhost_all(self._hosted())

    # ------------------------------------------------------------------
    # Shard movement protocol (called by the Shard Manager)
    # ------------------------------------------------------------------
    def add_shard(self, shard_id: ShardId) -> None:
        """ADD_SHARD: adopt a shard and start its tasks."""
        if not self.alive or self.slow_add:
            raise TimeoutError(f"{self.container_id} add timed out")
        self.assigned_shards.add(shard_id)
        self._changed()
        self._reconcile_shard(shard_id)

    def drop_shard(self, shard_id: ShardId) -> None:
        """DROP_SHARD: stop the shard's tasks and forget it."""
        if self.slow_drop:
            raise TimeoutError(f"{self.container_id} drop timed out")
        self.force_kill_shard(shard_id)

    def force_kill_shard(self, shard_id: ShardId) -> None:
        """Forceful kill after a DROP_SHARD timeout (section IV-A2)."""
        self._unhost_all(
            [task for task in self.tasks.values() if task.shard_id == shard_id]
        )
        self.assigned_shards.discard(shard_id)
        self._changed()

    # ------------------------------------------------------------------
    # Periodic: index refresh and reconciliation
    # ------------------------------------------------------------------
    def _refresh(self) -> None:
        """Fetch the shard index, then reconcile the assigned shards it
        changed. The Task Service keeps one build per spec-table version,
        so a quiet refresh costs the probe and one compare."""
        if not self.alive:
            return
        now = self._engine.now
        index = self._ts_dep.probe(self._service.shard_index)
        if index is not None:
            self._index = index
            self._index_fetched_at = now
        elif self._telemetry is not None and self._index is not None:
            # Task Service down: keep operating on the last-known-good
            # snapshot (paper section IV-D) and record how stale it is.
            self._telemetry.observe(
                "resilience.task-manager.task-service.staleness_s",
                now - self._index_fetched_at,
            )
        if self._index is not self._walked:
            self._reconcile_assigned()

    def _reconcile_assigned(self) -> None:
        """Reconcile, in order, every assigned shard whose entry in the
        cached index is not its entry in the last walked index (every
        one after :meth:`_changed`). A reconcile is idempotent and a
        served shard dict is never written, so a shard whose entry is
        that very object would start and stop nothing."""
        index, last = self._index, self._walked
        for shard_id in sorted(self.assigned_shards):
            if last is None or index.get(shard_id) is not last.get(shard_id):
                self._reconcile_shard(shard_id)
        self._walked = index

    def _changed(self) -> None:
        """Note a write to what this manager hosts or is assigned (or to
        a hosted task's state): the next refresh reconciles in full, and
        the container's fleet counter moves for the standby plane."""
        self._walked = None
        self.container.fleet_version.bump()

    def _reconcile_shard(self, shard_id: ShardId) -> None:
        """Drive this shard's tasks to match the (cached) shard index."""
        desired = (self._index or {}).get(shard_id, {})
        # Stop tasks that should no longer run here.
        self._unhost_all([
            task for task_id, task in self.tasks.items()
            if task.shard_id == shard_id and task_id not in desired
        ])
        # Start / restart what should run.
        for task_id, spec in sorted(desired.items()):
            existing = self.tasks.get(task_id)
            if existing is None:
                self._start_task(spec, shard_id)
            elif existing.spec.settings_fingerprint() != spec.settings_fingerprint():
                # "task update ... relatively lightweight": restart with the
                # new settings, resuming from the committed checkpoints. It
                # is the same task still recovering, so a recovery window
                # it has open survives the restart.
                failed_at = self._failed_at.get(task_id)
                self._unhost(existing)
                self._start_task(spec, shard_id)
                if failed_at is not None:
                    self._failed_at[task_id] = failed_at
            elif existing.state == TaskState.CRASHED:
                existing.restart()
                self._changed()

    def _start_task(self, spec: TaskSpec, shard_id: ShardId) -> None:
        # Exactly-once handoff: if a promoted standby is covering for this
        # task anywhere in the fleet, retire it before the real task
        # starts, so two incarnations never process the same partitions.
        if self.standby_plane is not None:
            self.standby_plane.release_for_start(spec.task_id)
        # Durable checkpoints: roll the live cursors forward to the last
        # snapshot so a restart resumes from O(since-last-checkpoint)
        # instead of the backlog horizon.
        if self.checkpoint_plane is not None:
            self.checkpoint_plane.on_task_start(spec.job_id)
        self._host(RunningTask(spec, self._scribe), shard_id)
        if self._tracer.enabled:
            # Cause: an in-flight shard movement if one brought this task
            # here, otherwise the sync plan that (re)published the spec.
            parent = (
                self._tracer.peek_shard_context(shard_id)
                or self._tracer.peek_context(spec.job_id, SLOT_SYNC)
            )
            self._tracer.record(
                "task-manager", "task-start", job_id=spec.job_id,
                parent=parent, task=spec.task_id, shard=shard_id,
                container=self.container_id,
            )

    # ------------------------------------------------------------------
    # Hosting: the one way into and the one way out of this manager
    # ------------------------------------------------------------------
    def _host(self, task: RunningTask, shard_id: Optional[ShardId]) -> None:
        """Take ``task`` in — as a primary of ``shard_id``, or with no
        shard as a standby replica: its slot in ``tasks`` / ``standbys``,
        the location index, and the container reservation."""
        spec = task.spec
        task.shard_id = shard_id
        if shard_id is None:
            self.standbys[spec.task_id] = task
            reservation = f"standby:{spec.task_id}"
        else:
            self.tasks[spec.task_id] = task
            reservation = spec.task_id
        self._hosted_threads += spec.threads
        job_tasks = self._task_hosts.setdefault(spec.job_id, {})
        hosts = job_tasks.get(spec.task_id, ())
        if self.container_id not in hosts:
            job_tasks[spec.task_id] = (*hosts, self.container_id)
        self.container.reserve(reservation, spec.resources)
        self._changed()

    def _unhost(self, task: RunningTask) -> None:
        """Stop a hosted primary or replica and undo :meth:`_host`.

        Once neither a task nor a replica of the id is left here, the id
        leaves the index (empty levels are pruned so it holds live
        placements only, not every job that ever ran) and takes its open
        recovery window along: a later incarnation of the same id must
        not close a window it never opened.
        """
        task_id = task.spec.task_id
        if task.shard_id is None:
            del self.standbys[task_id]
            reservation = f"standby:{task_id}"
        else:
            del self.tasks[task_id]
            reservation = task_id
        self._hosted_threads -= task.spec.threads
        task.stop()
        self._changed()
        # A killed container has already lost its reservations.
        if reservation in self.container.reservations:
            self.container.release(reservation)
        if task_id not in self.tasks and task_id not in self.standbys:
            self._failed_at.pop(task_id, None)
            job_tasks = self._task_hosts[task.spec.job_id]
            hosts = tuple(
                host for host in job_tasks[task_id] if host != self.container_id
            )
            if hosts:
                job_tasks[task_id] = hosts
            else:
                del job_tasks[task_id]
                if not job_tasks:
                    del self._task_hosts[task.spec.job_id]

    def _unhost_all(self, doomed: List[RunningTask]) -> None:
        for task in doomed:
            self._unhost(task)

    def _hosted(self) -> List[RunningTask]:
        """Every primary, then every replica, hosted here."""
        return [*self.tasks.values(), *self.standbys.values()]

    def stop_job_tasks(self, job_id: str) -> int:
        """Synchronously stop every task of one job (complex-sync phase 1).

        Returns how many tasks were stopped.
        """
        primaries = len(self.tasks)
        self._unhost_all(
            [task for task in self._hosted() if task.spec.job_id == job_id]
        )
        return primaries - len(self.tasks)

    # ------------------------------------------------------------------
    # Hot-standby hosting (driven by the standby plane)
    # ------------------------------------------------------------------
    def adopt_standby(self, task: RunningTask) -> None:
        """Host a passive replica; reserves resources like a real task."""
        self._host(task, None)

    def drop_standby(self, task_id: TaskId) -> Optional[RunningTask]:
        """Stop and release a hosted replica (promoted or passive)."""
        task = self.standbys.get(task_id)
        if task is not None:
            self._unhost(task)
        return task

    # ------------------------------------------------------------------
    # Periodic: heartbeat and the 40-second connection timeout
    # ------------------------------------------------------------------
    def _heartbeat_tick(self) -> None:
        if not self.alive:
            return
        if self.partitioned:
            # *This* container cannot reach the Shard Manager while
            # everyone else can: fail-over may already be under way
            # elsewhere, so the 40-second self-reboot clock must run.
            self._note_connection_failure()
            return
        try:
            self._sm_dep.call(self._shard_manager.heartbeat, self.container_id)
        except ServiceUnavailableError:
            # Service-level outage: no fail-over can happen anywhere, so
            # degraded mode means "keep your shards" — rebooting here
            # would needlessly kill healthy tasks (section IV-D).
            self._outage_started = None
            return
        except DegradedModeError:
            # Reachable but our session is gone (e.g. not registered):
            # treat as a connection failure and arm the reboot clock.
            self._note_connection_failure()
            return
        self._outage_started = None

    def _note_connection_failure(self) -> None:
        now = self._engine.now
        if self._outage_started is None:
            self._outage_started = now
            return
        if now - self._outage_started >= CONNECTION_TIMEOUT:
            self.reboot()

    def reboot(self) -> None:
        """Self-reboot after the proactive connection timeout.

        All tasks stop (so a fail-over elsewhere cannot duplicate them) and
        local shard state clears. On reconnect, the container either gets
        its old shards back (fail-over did not happen yet) or rejoins as an
        empty container (section IV-C).

        A container still down from its last reboot — its reconnect loop
        pending and nothing taken on since — has nothing to stop: the
        call is a no-op, so neither the 40-second clock of a container
        that stays partitioned nor the fail-over's reboot of it stacks a
        second reconnect loop.
        """
        if self._reconnect is not None and not self.assigned_shards and not (
            self.tasks or self.standbys
        ):
            return
        if self._tracer.enabled:
            self._tracer.record(
                "task-manager", "reboot", container=self.container_id,
                tasks=len(self.tasks), shards=len(self.assigned_shards),
            )
        self._unhost_all(self._hosted())
        self.assigned_shards.clear()
        self._changed()
        self.reboot_count += 1
        self._outage_started = None
        self.container.reboot()
        self._reconnect_in(0.0)

    def _try_reconnect(self) -> None:
        self._reconnect = None
        if not self.alive:
            return
        if self.partitioned:
            self._schedule_reconnect()
            return
        try:
            self._sm_dep.call(self._shard_manager.register_container, self)
        except DegradedModeError:
            # Shard Manager still down; try again next heartbeat.
            self._schedule_reconnect()
            return
        # Whatever shards the Shard Manager still maps here are re-adopted;
        # if fail-over already moved them, this list is empty.
        for shard_id in self._shard_manager.shards_of(self.container_id):
            self.add_shard(shard_id)

    def _schedule_reconnect(self) -> None:
        self._reconnect_in(self._heartbeat_interval)

    def _reconnect_in(self, delay: Seconds) -> None:
        """(Re)schedule the one reconnect loop's next attempt."""
        if self._reconnect is not None:
            self._reconnect.cancel()
        self._reconnect = self._engine.call_in(delay, self._try_reconnect)

    # ------------------------------------------------------------------
    # Data-plane stepping (driven by :func:`step_managers`)
    # ------------------------------------------------------------------
    def _after_step(self, now: Seconds, oom_killed: List[RunningTask]) -> None:
        """What a container step leaves to the manager: close recovery-lag
        windows, then restart this tick's OOM kills. Called only when a
        window is open or the cgroup killed something."""
        if self._failed_at:
            # First post-recovery progress sample: close the task's
            # recovery-lag window for the task.recovery_lag SLI. Judged
            # before this tick's OOM kills are restarted, so the step
            # that crashed a task never counts as its recovery.
            for task in self._hosted():
                task_id = task.spec.task_id
                if (
                    task_id in self._failed_at
                    and task.state == TaskState.RUNNING
                    and task.last_rate_mb > 0
                ):
                    lag = now - self._failed_at.pop(task_id)
                    if self._metrics is not None:
                        self._metrics.record(
                            task.spec.job_id, "recovery_lag", now, lag
                        )
        for task in oom_killed:
            self._handle_oom(task)

    def note_task_failure(self, task_id: TaskId, at: Seconds) -> None:
        """Open a recovery-lag window (used by the standby plane, whose
        promoted replica's first progress sample closes it)."""
        self._failed_at[task_id] = at

    def _handle_oom(self, task: RunningTask) -> None:
        """Read preserved OOM stats and post them to the metric system
        (paper section V-A); restart the task from its checkpoint."""
        self.oom_events += 1
        self._failed_at[task.spec.task_id] = self._engine.now
        if self._metrics is not None:
            self._metrics.record(
                task.spec.job_id, "oom_events", self._engine.now, 1.0
            )
        task.restart()
        self._changed()

    # ------------------------------------------------------------------
    # Periodic: shard load aggregation
    # ------------------------------------------------------------------
    def _report_loads(self) -> None:
        """Aggregate task usage per shard and report to the Shard Manager.

        "A background load aggregator thread in each Task Manager collects
        the task resource usage metrics and aggregates them to calculate
        the latest shard load." (section IV-B).
        """
        if not self.alive or self.partitioned:
            return
        per_shard: Dict[ShardId, ResourceVector] = {}
        for task in self.tasks.values():
            shard_id = task.shard_id
            usage = ResourceVector(
                cpu=task.last_cpu_used,
                memory_gb=task.memory_needed_gb(),
                disk_gb=task.disk_needed_gb(),
            )
            per_shard[shard_id] = per_shard.get(
                shard_id, ResourceVector.zero()
            ) + usage
        for shard_id, load in sorted(per_shard.items()):
            if (
                self._sm_dep.probe(
                    self._shard_manager.report_shard_load, shard_id, load,
                    default=False,
                )
                is False
            ):
                # Shard Manager unavailable: drop this report — loads are
                # periodic, the next interval re-reports everything.
                return

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def running_task_ids(self) -> List[TaskId]:
        """Tasks currently in RUNNING state (sorted).

        Promoted standbys count — they *are* the running incarnation
        while the takeover window is open.
        """
        return sorted({
            task.spec.task_id for task in self._hosted()
            if task.state == TaskState.RUNNING
        })

    def __repr__(self) -> str:
        return (
            f"TaskManager({self.container_id!r}, "
            f"shards={len(self.assigned_shards)}, tasks={len(self.tasks)})"
        )
