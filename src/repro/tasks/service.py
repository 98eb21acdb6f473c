"""The Task Service.

"Internally, the Task Service retrieves the list of jobs from the Job Store
and dynamically generates these task specs considering the job's
parallelism level and by applying other template substitutions." (paper
section IV). Task Managers fetch the *full snapshot* of specs; the service
caches the generated snapshot with a 90-second TTL ("the Task Service
caching expires (90 seconds)", section IV-D), which is one of the three
delays that add up to the paper's 1–2 minute end-to-end scheduling latency.

Spec state is updated by the State Syncer through the
:class:`~repro.tasks.actuator.TurbineActuator` as plans execute, so the
snapshot always reflects *committed* (or committing) state, never a
half-applied plan.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.errors import ServiceUnavailableError, SyncError
from repro.jobs.configs import Config
from repro.jobs.model import JobView
from repro.sim.engine import Engine
from repro.tasks.spec import TaskSpec
from repro.types import JobId, Seconds, TaskId, Version

#: Snapshot cache TTL (paper section IV-D).
CACHE_TTL: Seconds = 90.0


class TaskService:
    """Generates and serves task-spec snapshots."""

    def __init__(self, engine: Engine) -> None:
        self._engine = engine
        #: Authoritative spec table, job -> list of specs (index order).
        self._specs: Dict[JobId, List[TaskSpec]] = {}
        #: The spec table's version, bumped on every change.
        self.version = Version()
        #: Cached snapshot + when its TTL last started and the ``version``
        #: value it was built from.
        self._cached_snapshot: Optional[Dict[TaskId, TaskSpec]] = None
        self._cached_at: Seconds = -float("inf")
        self._cached_version = -1
        #: Shard grouping of the snapshot object ``_indexed`` (by identity).
        self._shard_index: Dict[str, Dict[TaskId, TaskSpec]] = {}
        self._indexed: Optional[Dict[TaskId, TaskSpec]] = None
        self._indexed_shards = 0
        #: When False the service is down; managers fall back to their own
        #: cached snapshots (degraded mode, section IV-D).
        self.available = True

    # ------------------------------------------------------------------
    # Availability (chaos hooks)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Begin an availability window: snapshot serving raises and
        managers run on their last-known-good snapshots."""
        self.available = False

    def recover(self) -> None:
        """End the availability window."""
        self.available = True

    # ------------------------------------------------------------------
    # Spec table updates (called by the actuator)
    # ------------------------------------------------------------------
    def set_job_specs(
        self, job_id: JobId, config: Config, urgent: bool = False
    ) -> List[TaskSpec]:
        """(Re)generate the specs of one job from its configuration.

        ``urgent=True`` busts the snapshot cache so the change is visible
        at the managers' next refresh. The State Syncer uses it for the
        *structural* phase of a complex synchronization — the job's tasks
        were just stopped, and leaving them down for a full cache TTL
        would double the paper's restart gap. Ordinary settings pushes
        (package releases etc.) stay lazy: they propagate when the cache
        expires, which is exactly the section IV-D propagation chain.

        A non-positive parallelism is a malformed configuration, not a
        request for zero tasks — rejecting it here makes the State
        Syncer's plan fail loudly (and eventually quarantine the job)
        instead of silently unscheduling every task.
        """
        view = JobView.from_config(config)
        if view.task_count < 1:
            raise SyncError(
                f"job {job_id} has invalid task_count {view.task_count}"
            )
        specs = TaskSpec.of_job(job_id, view)
        self._specs[job_id] = specs
        self._invalidate(urgent)
        return specs

    def remove_job(self, job_id: JobId) -> None:
        """Drop a stopped/deleted job's specs (always urgent — a stale
        cached snapshot must not resurrect stopped tasks)."""
        if self._specs.pop(job_id, None) is not None:
            self._invalidate(urgent=True)

    def _invalidate(self, urgent: bool = False) -> None:
        # Lazy by default: the cached snapshot is NOT dropped, so the
        # change becomes visible when the TTL lapses ("task updates can be
        # reflected in runtime after the Task Service caching expires (90
        # seconds) plus synchronization time", section IV-D). The cache
        # trades freshness for fan-out capacity.
        self.version.bump()
        if urgent:
            self._cached_snapshot = None

    # ------------------------------------------------------------------
    # Snapshot serving
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[TaskId, TaskSpec]:
        """The full task-spec snapshot, served from cache within the TTL.

        When the TTL lapses over an unchanged spec table, the cached
        build is kept and only its TTL restarts: a rebuild would be an
        equal dict, and keeping the object keeps its shard grouping and
        lets a Task Manager see that nothing changed by identity.

        Raises :class:`ServiceUnavailableError` when the service is down —
        callers keep their previous snapshot in that case.
        """
        if not self.available:
            raise ServiceUnavailableError("Task Service is unavailable")
        now = self._engine.now
        if self._cached_snapshot is not None:
            if now - self._cached_at < CACHE_TTL:
                return self._cached_snapshot
            if self._cached_version == self.version.value:
                self._cached_at = now
                return self._cached_snapshot
        snapshot = {
            spec.task_id: spec
            for specs in self._specs.values()
            for spec in specs
        }
        self._cached_snapshot = snapshot
        self._cached_at = now
        self._cached_version = self.version.value
        return snapshot

    def shard_index(
        self, num_shards: int
    ) -> Dict[str, Dict[TaskId, TaskSpec]]:
        """The snapshot grouped by shard id: ``{shard: {task_id: spec}}``.

        In the paper every Task Manager computes the MD5 grouping locally;
        since the computation is a pure function of the (shared) snapshot,
        this memoizes one grouping per snapshot version and lets all
        managers read it — semantically identical, much cheaper at scale.
        """
        snapshot = self.snapshot()  # raises when degraded
        # Memoize per snapshot *build* (not table version): within the
        # TTL every manager sees the same cached snapshot and grouping.
        if snapshot is not self._indexed or num_shards != self._indexed_shards:
            from repro.tasks.shard import shard_id_for_task

            index: Dict[str, Dict[TaskId, TaskSpec]] = {}
            for task_id, spec in snapshot.items():
                shard = shard_id_for_task(task_id, num_shards)
                index.setdefault(shard, {})[task_id] = spec
            self._shard_index = index
            self._indexed, self._indexed_shards = snapshot, num_shards
        return self._shard_index

    def specs_of(self, job_id: JobId) -> List[TaskSpec]:
        """The current specs of one job (empty when unknown)."""
        return list(self._specs.get(job_id, []))

    def job_ids(self) -> List[JobId]:
        """Jobs with at least one spec, sorted."""
        return sorted(self._specs)

    def __repr__(self) -> str:
        total = sum(len(specs) for specs in self._specs.values())
        return f"TaskService(jobs={len(self._specs)}, tasks={total})"
