"""Convergence checking: are the paper's safety invariants holding?

The headline robustness claims (sections IV-C/IV-D, "lessons learned")
reduce to a small set of checkable invariants:

* **no duplicates** — no task id runs in two containers at once ("no two
  containers ever run the same task");
* **no orphans** — no container runs a task of a job the Job Store no
  longer knows;
* **no missing tasks** — every spec the Task Service serves has a running
  task somewhere, and every RUNNING, converged job has specs;
* **placement converged** — every assigned shard's owner is a live,
  registered container;
* **configs converged** — every RUNNING job's running config equals its
  merged expected config, nothing is dirty, and nothing is quarantined
  (``JobStore.config_converged``, read from the syncer's stamp);
* **nothing shed** — no job the Capacity Manager stopped is still
  waiting to be resumed.

:class:`ConvergenceChecker` evaluates all of them against a live
platform; the chaos engine samples it after each fault clears to measure
time-to-recovery, and the hypothesis suites assert the safety subset
(duplicates/orphans) at every step of randomized histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.errors import DegradedModeError
from repro.types import JobState, Seconds, TaskState


@dataclass
class InvariantReport:
    """One sample of every invariant (empty lists = all good)."""

    time: Seconds
    #: Task ids running in more than one live container.
    duplicates: List[str] = field(default_factory=list)
    #: Running task ids whose job is gone from the Job Store.
    orphans: List[str] = field(default_factory=list)
    #: Spec'd task ids with no running task, and RUNNING converged jobs
    #: with no specs at all.
    missing: List[str] = field(default_factory=list)
    #: Shards assigned to a container that is not live and registered.
    unplaced_shards: List[str] = field(default_factory=list)
    #: Jobs whose running config diverges from expected (or is dirty).
    diverged: List[str] = field(default_factory=list)
    #: Jobs in QUARANTINED state (oncall attention required).
    quarantined: List[str] = field(default_factory=list)
    #: Jobs the Capacity Manager stopped and has not resumed yet.
    shed: List[str] = field(default_factory=list)
    #: False while the Job Store is unavailable: store-dependent checks
    #: could not run, so the system cannot be called converged.
    store_visible: bool = True
    #: Live replicas still catching up on the command log. A replica in
    #: catch-up is *not yet converged* — but its stale shadow view is
    #: never read for the placement/config checks above, so it can never
    #: be misreported as a placement violation (all store-dependent
    #: checks read the leader endpoint only).
    lagging_replicas: List[str] = field(default_factory=list)
    #: True while the replica set has no live leader (failover pending).
    leaderless: bool = False
    #: Task ids mid standby handoff: a promoted standby is still serving
    #: while a freshly started primary exists for the same task. The
    #: overlap is deliberate (the standby retires only once the primary
    #: is confirmed), so it is *not yet converged* — but it is never a
    #: duplicate-task safety violation; passive standbys never occupy
    #: the task-id namespace at all.
    promoting: List[str] = field(default_factory=list)

    @property
    def safety_ok(self) -> bool:
        """The never-violated invariants: no duplicates, no orphans."""
        return not self.duplicates and not self.orphans

    @property
    def converged(self) -> bool:
        """Everything restored: safety, liveness, and config agreement."""
        return (
            self.store_visible
            and self.safety_ok
            and not self.missing
            and not self.unplaced_shards
            and not self.diverged
            and not self.quarantined
            and not self.shed
            and not self.lagging_replicas
            and not self.leaderless
            and not self.promoting
        )

    def violations(self) -> Dict[str, List[str]]:
        """Non-empty invariant violations, keyed by invariant name."""
        out: Dict[str, List[str]] = {}
        for name in (
            "duplicates", "orphans", "missing", "unplaced_shards",
            "diverged", "quarantined", "shed",
        ):
            values = getattr(self, name)
            if values:
                out[name] = values
        if not self.store_visible:
            out["store_visible"] = ["job store unavailable"]
        if self.lagging_replicas:
            out["lagging_replicas"] = self.lagging_replicas
        if self.leaderless:
            out["leaderless"] = ["no live job-store leader"]
        if self.promoting:
            out["promoting"] = self.promoting
        return out


class ConvergenceChecker:
    """Samples the invariants of one platform."""

    def __init__(self, platform) -> None:
        self._platform = platform

    def check(self) -> InvariantReport:
        platform = self._platform
        report = InvariantReport(time=platform.now)

        # Replication plane (when attached): a leaderless group or a
        # live replica still in catch-up means "not yet converged". Dead
        # replicas are an open fault, not a lagging replica, and shadow
        # stores are never read below — only the leader endpoint is.
        replication = getattr(platform, "replication", None)
        if replication is not None:
            report.lagging_replicas = replication.lagging_replicas()
            report.leaderless = not replication.has_leader
        capacity = getattr(platform, "capacity_manager", None)
        if capacity is not None:
            report.shed = sorted(capacity.stopped_jobs)

        # Duplicates: every task object on a live manager occupies the
        # task-id namespace, whatever its state. Standby replicas are
        # deliberately outside that namespace — a passive replica is not
        # a second copy of the task (it processes nothing), and a
        # promoted one overlapping a fresh primary is the handoff
        # protocol working as designed, tracked as ``promoting`` below.
        owners: Dict[str, List[str]] = {}
        # Task id -> job id, as its first (sorted) hosting container has it.
        job_of: Dict[str, str] = {}
        running: set = set()
        promoted: Dict[str, str] = {}
        for container_id in sorted(platform.task_managers):
            manager = platform.task_managers[container_id]
            if not manager.alive:
                continue
            for task_id, task in manager.tasks.items():
                owners.setdefault(task_id, []).append(container_id)
                job_of.setdefault(task_id, task.spec.job_id)
                if task.state == TaskState.RUNNING:
                    running.add(task_id)
            for task_id, task in manager.standbys.items():
                if task.state == TaskState.RUNNING:
                    promoted[task_id] = container_id
                    running.add(task_id)
        report.duplicates = sorted(
            task_id for task_id, where in owners.items() if len(where) > 1
        )
        report.promoting = sorted(
            task_id for task_id in promoted if task_id in owners
        )

        # Placement: assigned shards must map to live registered containers.
        live_containers = {
            manager.container_id
            for manager in platform.shard_manager.live_managers()
        }
        report.unplaced_shards = sorted(
            shard_id
            for shard_id, owner in platform.shard_manager.assignment.items()
            if owner not in live_containers
        )

        # Store-dependent checks (skipped while the store is out).
        store = platform.job_store
        try:
            job_ids = store.job_ids()
        except DegradedModeError:
            report.store_visible = False
            return report
        live_jobs = set(job_ids)
        report.orphans = sorted(
            task_id for task_id, job_id in job_of.items()
            if job_id not in live_jobs
        )
        spec_jobs = set(platform.task_service.job_ids())
        for job_id in job_ids:
            state = store.state_of(job_id)
            if state == JobState.QUARANTINED:
                report.quarantined.append(job_id)
            if state != JobState.RUNNING:
                continue
            if not store.config_converged(job_id):
                report.diverged.append(job_id)
            elif job_id not in spec_jobs:
                # Converged on paper with nothing to run (a half-killed
                # job): no diff will ever make the syncer restart it.
                report.missing.append(job_id)

        # Missing: the Task Service's spec table is the cluster's marching
        # orders; every spec must have a RUNNING task somewhere.
        for job_id in platform.task_service.job_ids():
            for spec in platform.task_service.specs_of(job_id):
                if spec.task_id not in running:
                    report.missing.append(spec.task_id)
        report.missing.sort()
        return report
