"""The Turbine actuator: Task Management's implementation of
:class:`~repro.jobs.plan.TaskActuator`.

This is the seam between *what to run* and *where to run*: the State Syncer
executes plans against this object without knowing anything about shards or
containers. Every method is idempotent, as the plan contract requires.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Optional, Set, Tuple

from repro.errors import SyncError
from repro.jobs.configs import Config
from repro.jobs.model import JobView
from repro.jobs.plan import TaskActuator
from repro.obs.trace import NULL_TRACER, SLOT_SYNC, Tracer
from repro.scribe.bus import ScribeBus
from repro.tasks.service import TaskService
from repro.tasks.shard_manager import ShardManager
from repro.types import ContainerId, JobId, TaskId, TaskState


class TurbineActuator(TaskActuator):
    """Executes syncer plans against the Task Service and Task Managers."""

    def __init__(
        self,
        task_service: TaskService,
        shard_manager: ShardManager,
        scribe: ScribeBus,
        task_hosts: Dict[JobId, Dict[TaskId, Tuple[ContainerId, ...]]],
        job_holders: Callable[[], Iterable],
        tracer: Optional[Tracer] = None,
    ) -> None:
        self._service = task_service
        self._shard_manager = shard_manager
        self._scribe = scribe
        #: The Task Managers' task-location index (see
        #: :attr:`TaskManager._task_hosts`), read-only here.
        self._task_hosts = task_hosts
        #: The platform's attached keepers of per-job control state; a
        #: callable because subsystems attach after this object is built.
        self._job_holders = job_holders
        self._tracer = tracer or NULL_TRACER

    def known_job_ids(self) -> Set[JobId]:
        """Every job with specs, checkpoints or a holder's state. Not the
        location index: a killed container keeps its entries by design."""
        known = {*self._service.job_ids(), *self._scribe.checkpoints.job_ids()}
        for holder in self._job_holders():
            known.update(holder.held_jobs())
        return known

    def forget_job(self, job_id: JobId) -> None:
        """The one reclaim of a store-deleted job: ``Turbine.deprovision``
        runs it right away, the syncer's sweep for whatever it finds kept."""
        self.stop_tasks(job_id)
        self._scribe.checkpoints.drop_job(job_id)
        for holder in self._job_holders():
            holder.forget_job(job_id)

    # ------------------------------------------------------------------
    # Simple synchronization
    # ------------------------------------------------------------------
    def apply_settings(self, job_id: JobId, config: Config) -> None:
        """Regenerate the job's task specs with the new settings.

        Propagation to the running tasks is eventual: Task Managers pick
        up the new specs on their next refresh (the paper's "the package
        setting will eventually propagate to the impacted tasks").
        """
        specs = self._service.set_job_specs(job_id, config)
        self._tracer.record(
            "task-service", "specs-updated", job_id=job_id,
            parent=self._tracer.peek_context(job_id, SLOT_SYNC),
            task_count=len(specs),
        )

    # ------------------------------------------------------------------
    # Complex synchronization phases
    # ------------------------------------------------------------------
    def stop_tasks(self, job_id: JobId) -> None:
        """Phase 1: remove the job's specs and stop its tasks everywhere.

        Removing the specs first guarantees no Task Manager restarts an old
        task from a snapshot refresh while the plan is in flight.
        """
        self._service.remove_job(job_id)
        stopped = 0
        for manager in self._hosting_managers(job_id):
            stopped += manager.stop_job_tasks(job_id)
        self._tracer.record(
            "task-service", "tasks-stopped", job_id=job_id,
            parent=self._tracer.peek_context(job_id, SLOT_SYNC),
            stopped=stopped,
        )

    def redistribute_checkpoints(
        self, job_id: JobId, old_task_count: int, new_task_count: int
    ) -> None:
        """Phase 2: re-map checkpoints to the new task layout.

        Checkpoints here are keyed by *partition*, not by task, so the
        redistribution the paper performs explicitly is a pure re-slicing:
        the new tasks' partition slices resume from the per-partition
        offsets automatically. What this phase must still guarantee is
        ordering — it runs only when every old task is fully stopped,
        otherwise a straggler could advance a checkpoint mid-handoff.
        """
        still_running = [
            task.spec.task_id
            for manager in self._hosting_managers(job_id)
            for task in manager.tasks.values()
            if task.spec.job_id == job_id and task.state == TaskState.RUNNING
        ]
        if still_running:
            raise SyncError(
                f"cannot redistribute checkpoints of {job_id}: tasks still "
                f"running: {still_running[:5]}"
            )

    def _hosting_managers(self, job_id: JobId) -> List:
        """The live managers that host a task or replica of the job.

        Every other manager of the tier would answer "nothing of that job
        here", so asking only these — under the Shard Manager's own
        liveness filter and order — is the full walk minus its no-ops.
        """
        hosts = set().union(*self._task_hosts.get(job_id, {}).values())
        return self._shard_manager.live_managers(among=hosts)

    def start_tasks(self, job_id: JobId, task_count: int, config: Config) -> None:
        """Phase 3: publish the new specs; tasks start on manager refresh.

        The 1–2 minute end-to-end scheduling latency the paper quotes is
        exactly this propagation chain (State Syncer round + Task Service
        cache TTL + Task Manager refresh).
        """
        configured = JobView.from_config(config).task_count
        if configured != task_count:
            raise SyncError(
                f"start_tasks for {job_id}: config task_count disagrees "
                f"with plan ({configured} != {task_count})"
            )
        # Urgent: the job's tasks are currently stopped (phase 1); waiting
        # for the cache TTL would leave them down for another 90 seconds.
        self._service.set_job_specs(job_id, config, urgent=True)
        self._tracer.record(
            "task-service", "specs-published", job_id=job_id,
            parent=self._tracer.peek_context(job_id, SLOT_SYNC),
            task_count=task_count,
        )
