"""The chaos engine: schedules scenarios and measures recovery.

All faults run on the simulation engine, so a scenario is as
deterministic as the platform it runs against: same seed, same fault
times, same recovery trajectory. Every injection, clearance, stimulus,
and convergence event is appended to :attr:`ChaosEngine.records`, which
the incident timeline merges alongside syncer alerts, failovers, and
host deaths.

MTTR is measured per fault: when a measured fault clears, the engine
starts sampling :class:`~repro.chaos.convergence.ConvergenceChecker`
every ``check_interval`` seconds; the first fully converged sample
closes the clock. A fault whose clock never closes reports ``None``
(the scenario did not recover inside the run).

Faults can opt into alternative recovery predicates via ``watch``:

* ``lag`` opens at inject with the target job's pre-fault backlog as a
  baseline and closes when the backlog is back within
  :data:`LAG_EPSILON_MB` of it;
* ``takeover`` opens at inject and closes when every spec of the target
  task's job has a RUNNING task (primary or promoted standby) on a live
  manager — sampled on a dedicated 1 s fine timer, because hot-standby
  promotion finishes well under the coarse ``check_interval``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.chaos.convergence import ConvergenceChecker, InvariantReport
from repro.chaos.scenarios import ChaosScenario, Fault
from repro.errors import DegradedModeError
from repro.types import Seconds, TaskState

#: How often the convergence watch samples the invariants.
CHECK_INTERVAL: Seconds = 5.0

#: How often the fine watch samples takeover predicates.
FINE_CHECK_INTERVAL: Seconds = 1.0

#: A lag watch closes when the backlog is back within this much of its
#: pre-fault baseline (one driver tick of slack against rounding).
LAG_EPSILON_MB: float = 1.0


@dataclass(frozen=True)
class ChaosRecord:
    """One thing the chaos engine did or observed."""

    time: Seconds
    scenario: str
    kind: str    # "inject" | "clear" | "action" | "converged"
    target: str
    detail: str = ""


@dataclass
class _Watch:
    """An open MTTR clock: fault cleared (or injected, for the
    inject-anchored watch kinds), waiting for its recovery predicate."""

    scenario: str
    fault_key: str
    cleared_at: Seconds
    #: Which predicate closes this clock (a :data:`WATCH_KINDS` value).
    watch: str = "convergence"
    #: Job id the lag/takeover predicates evaluate ("" for convergence).
    target: str = ""
    #: Pre-fault backlog of the target job, MB (lag watches only).
    baseline: float = 0.0


class ChaosEngine:
    """Schedules declarative fault scenarios against one platform."""

    def __init__(self, platform, check_interval: Seconds = CHECK_INTERVAL) -> None:
        self._platform = platform
        self._engine = platform.engine
        self._check_interval = check_interval
        self.checker = ConvergenceChecker(platform)
        self.records: List[ChaosRecord] = []
        #: fault key → MTTR in seconds (``None`` until converged).
        self.mttr: Dict[str, Optional[Seconds]] = {}
        self._watches: List[_Watch] = []
        self._watch_timer = None
        self._fine_timer = None
        #: fault key → concrete replica id resolved at inject time, so a
        #: ``replica-crash`` targeting "leader" restarts the same process
        #: it killed (the leadership may have moved by clear time).
        self._replica_targets: Dict[str, str] = {}
        #: fault key → host id resolved at inject time for
        #: ``"task-of:<task_id>"`` targets, so the clear path degrades
        #: the same host it hit (the task may have moved meanwhile).
        self._resolved_hosts: Dict[str, str] = {}

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(self, scenario: ChaosScenario, at: Optional[Seconds] = None) -> None:
        """Arm every fault of ``scenario`` relative to ``at`` (default now)."""
        base = self._engine.now if at is None else at
        for fault in scenario.faults:
            self._engine.call_at(
                base + fault.at,
                lambda f=fault: self._inject(scenario.name, f),
            )
            if fault.duration is not None:
                self._engine.call_at(
                    base + fault.at + fault.duration,
                    lambda f=fault: self._clear(scenario.name, f),
                )
        self._ensure_watch_timer()

    def check(self) -> InvariantReport:
        """One immediate invariant sample (no timer involved)."""
        return self.checker.check()

    # ------------------------------------------------------------------
    # Fault dispatch
    # ------------------------------------------------------------------
    def _inject(self, scenario: str, fault: Fault) -> None:
        platform = self._platform
        detail = ""
        kind = "inject"
        # Lag baselines must be sampled *before* the fault lands — the
        # fault itself (e.g. a checkpoint wipe) inflates the backlog.
        baseline = 0.0
        if fault.measure and fault.watch == "lag":
            baseline = self._job_lag_mb(self._watch_target(fault))
        if fault.kind == "job-store-outage":
            platform.job_store.fail()
        elif fault.kind == "syncer-crash":
            platform.syncer.crash()
        elif fault.kind == "shard-manager-outage":
            platform.shard_manager.fail()
        elif fault.kind == "task-service-outage":
            platform.task_service.fail()
        elif fault.kind == "metric-gap":
            platform.metrics.fail()
        elif fault.kind == "scribe-partition-loss":
            for partition in platform.scribe.get_category(fault.target).partitions:
                partition.online = False
        elif fault.kind == "host-failure":
            host = self._resolve_host(fault)
            platform.failures.fail_now(host, label=scenario)
            kind = "action"
            if host != fault.target:
                detail = host
        elif fault.kind == "oncall-patch":
            from repro.jobs.configs import ConfigLevel

            platform.job_service.patch(
                fault.target, ConfigLevel.ONCALL, dict(fault.payload or {})
            )
            kind = "action"
            detail = repr(dict(fault.payload or {}))
        elif fault.kind == "replica-crash":
            replica_id = platform.replication.crash(fault.target or "leader")
            self._replica_targets[fault.key] = replica_id
            detail = replica_id
        elif fault.kind == "repl-log-trim":
            dropped = platform.replication.trim_log()
            kind = "action"
            detail = f"dropped={dropped}"
        elif fault.kind == "checkpoint-wipe":
            platform.scribe.checkpoints.drop_job(fault.target)
            kind = "action"
        elif fault.kind == "slow-node":
            host = self._resolve_host(fault)
            factor = float((fault.payload or {}).get("factor", 0.5))
            for manager in self._managers_on(host):
                manager.slow_factor = factor
            detail = f"{host} at {factor:g}x"
        self._record(scenario, kind, fault.key, detail)
        self._telemetry_inc("chaos.faults_injected")
        if fault.measure and fault.watch != "convergence":
            # Inject-anchored clocks: the watch opens the moment the
            # fault lands (there may be nothing to clear at all).
            self.mttr.setdefault(fault.key, None)
            self._watches.append(_Watch(
                scenario, fault.key, cleared_at=self._engine.now,
                watch=fault.watch, target=self._watch_target(fault),
                baseline=baseline,
            ))
            if fault.watch == "takeover":
                self._ensure_fine_timer()
            self._ensure_watch_timer()

    def _clear(self, scenario: str, fault: Fault) -> None:
        platform = self._platform
        if fault.kind == "job-store-outage":
            platform.job_store.recover()
        elif fault.kind == "syncer-crash":
            platform.syncer.restart()
        elif fault.kind == "shard-manager-outage":
            platform.shard_manager.recover()
        elif fault.kind == "task-service-outage":
            platform.task_service.recover()
        elif fault.kind == "metric-gap":
            platform.metrics.recover()
        elif fault.kind == "scribe-partition-loss":
            for partition in platform.scribe.get_category(fault.target).partitions:
                partition.online = True
        elif fault.kind == "host-failure":
            platform.failures.recover_now(
                self._resolved_hosts.get(fault.key, fault.target),
                label=scenario,
            )
        elif fault.kind == "replica-crash":
            platform.replication.restart(self._replica_targets[fault.key])
        elif fault.kind == "slow-node":
            host = self._resolved_hosts.get(fault.key, fault.target)
            for manager in self._managers_on(host):
                manager.slow_factor = 1.0
        self._record(scenario, "clear", fault.key)
        if fault.measure and fault.watch == "convergence":
            self.mttr.setdefault(fault.key, None)
            self._watches.append(
                _Watch(scenario, fault.key, cleared_at=self._engine.now)
            )
            self._ensure_watch_timer()

    # ------------------------------------------------------------------
    # Convergence watch
    # ------------------------------------------------------------------
    def _ensure_watch_timer(self) -> None:
        if self._watch_timer is None:
            self._watch_timer = self._engine.every(
                self._check_interval, self._check_watches, name="chaos-watch"
            )

    def _ensure_fine_timer(self) -> None:
        if self._fine_timer is None:
            self._fine_timer = self._engine.every(
                FINE_CHECK_INTERVAL, self._check_fine_watches,
                name="chaos-fine-watch",
            )

    def _check_watches(self) -> None:
        """The coarse tick: convergence and lag watches."""
        if not self._watches:
            return
        now = self._engine.now
        report: Optional[InvariantReport] = None
        still_open: List[_Watch] = []
        for watch in self._watches:
            if watch.watch == "convergence":
                if report is None:
                    report = self.checker.check()
                satisfied = report.converged
            elif watch.watch == "lag":
                satisfied = (
                    self._job_lag_mb(watch.target)
                    <= watch.baseline + LAG_EPSILON_MB
                )
            else:
                # Takeover watches belong to the fine timer; a coarse
                # tick leaves them untouched so their sub-second clocks
                # stay on the 1 s grid.
                still_open.append(watch)
                continue
            if satisfied:
                self._close_watch(watch, now)
            else:
                still_open.append(watch)
        self._watches = still_open

    def _check_fine_watches(self) -> None:
        """The 1 s tick: takeover watches only."""
        takeovers = [w for w in self._watches if w.watch == "takeover"]
        if not takeovers:
            return
        now = self._engine.now
        for watch in takeovers:
            if self._takeover_complete(watch.target):
                self._close_watch(watch, now)
                self._watches.remove(watch)

    def _close_watch(self, watch: _Watch, now: Seconds) -> None:
        mttr = now - watch.cleared_at
        self.mttr[watch.fault_key] = mttr
        self._record(
            watch.scenario, "converged", watch.fault_key,
            f"mttr={mttr:g}s",
        )
        self._telemetry_observe("chaos.mttr_seconds", mttr)

    # ------------------------------------------------------------------
    # Watch predicates and target resolution
    # ------------------------------------------------------------------
    def _watch_target(self, fault: Fault) -> str:
        """The job id a lag/takeover watch evaluates for ``fault``."""
        target = fault.target
        if target.startswith("task-of:"):
            # "task-of:<job>:<index>" — the watch covers the whole job.
            return target[len("task-of:"):].rsplit(":", 1)[0]
        return target

    def _resolve_host(self, fault: Fault) -> str:
        """Resolve a ``"task-of:<task_id>"`` target to its current host.

        Resolution happens once, at inject, and is memoized per fault
        key so the clear path degrades/recovers the same host even if
        the task has moved meanwhile.
        """
        target = fault.target
        if not target.startswith("task-of:"):
            return target
        if fault.key in self._resolved_hosts:
            return self._resolved_hosts[fault.key]
        task_id = target[len("task-of:"):]
        managers = self._platform.task_managers
        for container_id in sorted(managers):
            manager = managers[container_id]
            if manager.alive and task_id in manager.tasks:
                host = manager.container.host_id
                self._resolved_hosts[fault.key] = host
                return host
        raise ValueError(
            f"cannot resolve {target!r}: no live manager runs {task_id}"
        )

    def _managers_on(self, host_id: str) -> List[object]:
        managers = self._platform.task_managers
        return [
            managers[container_id]
            for container_id in sorted(managers)
            if managers[container_id].container.host_id == host_id
        ]

    def _job_lag_mb(self, job_id: str) -> float:
        """The job's unprocessed backlog in MB (infinite while the Job
        Store cannot say what the job reads)."""
        try:
            return self._platform.job_lag_mb(job_id)
        except DegradedModeError:
            return float("inf")

    def _takeover_complete(self, job_id: str) -> bool:
        """Every spec of ``job_id`` has a RUNNING task on a live manager
        — counting promoted standbys, which hold the fort until the
        reconciliation path starts a proper primary."""
        platform = self._platform
        try:
            specs = platform.task_service.specs_of(job_id)
        except DegradedModeError:
            return False
        running: set = set()
        for container_id in sorted(platform.task_managers):
            manager = platform.task_managers[container_id]
            if not manager.alive:
                continue
            for task_id, task in manager.tasks.items():
                if task.state == TaskState.RUNNING:
                    running.add(task_id)
            for task_id, task in manager.standbys.items():
                if task.state == TaskState.RUNNING:
                    running.add(task_id)
        return bool(specs) and all(
            spec.task_id in running for spec in specs
        )

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record(self, scenario: str, kind: str, target: str, detail: str = "") -> None:
        self.records.append(
            ChaosRecord(self._engine.now, scenario, kind, target, detail)
        )

    def _telemetry_inc(self, name: str) -> None:
        telemetry = getattr(self._platform, "telemetry", None)
        if telemetry is not None:
            telemetry.inc(name)

    def _telemetry_observe(self, name: str, value: float) -> None:
        telemetry = getattr(self._platform, "telemetry", None)
        if telemetry is not None:
            telemetry.observe(name, value)

    def __repr__(self) -> str:
        open_watches = len(self._watches)
        return (
            f"ChaosEngine(records={len(self.records)}, "
            f"open_watches={open_watches})"
        )
