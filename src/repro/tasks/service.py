"""The Task Service.

"Internally, the Task Service retrieves the list of jobs from the Job Store
and dynamically generates these task specs considering the job's
parallelism level and by applying other template substitutions." (paper
section IV). Task Managers fetch the *full snapshot* of specs, served here
grouped by shard (:meth:`TaskService.shard_index`) and cached with a
90-second TTL ("the Task Service caching expires (90 seconds)", section
IV-D), which is one of the three
delays that add up to the paper's 1–2 minute end-to-end scheduling latency.

Spec state is updated by the State Syncer through the
:class:`~repro.tasks.actuator.TurbineActuator` as plans execute, so the
snapshot always reflects *committed* (or committing) state, never a
half-applied plan.
"""

from __future__ import annotations

from typing import Dict, List

from repro.errors import PlacementError, ServiceUnavailableError, SyncError
from repro.jobs.configs import Config
from repro.jobs.model import JobView
from repro.sim.engine import Engine
from repro.tasks.spec import TaskSpec
from repro.types import JobId, Seconds, ShardId, TaskId, Version

#: Index cache TTL (paper section IV-D).
CACHE_TTL: Seconds = 90.0


class TaskService:
    """Generates task specs and serves them grouped by shard."""

    def __init__(self, engine: Engine, num_shards: int) -> None:
        if num_shards <= 0:
            raise PlacementError(f"num_shards must be positive: {num_shards}")
        self._engine = engine
        self._num_shards = num_shards
        #: Authoritative spec table, job -> list of specs (index order).
        self._specs: Dict[JobId, List[TaskSpec]] = {}
        #: The spec table's version, bumped on every change.
        self.version = Version()
        #: The served shard index, when its TTL last started and the
        #: ``version`` value it was built from.
        self._index: Dict[ShardId, Dict[TaskId, TaskSpec]] = {}
        self._cached_at: Seconds = -float("inf")
        self._cached_version = -1
        #: When False the service is down; managers fall back to their own
        #: cached indexes (degraded mode, section IV-D).
        self.available = True

    # ------------------------------------------------------------------
    # Availability (chaos hooks)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Begin an availability window: index serving raises and
        managers run on their last-known-good indexes."""
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

        ``urgent=True`` busts the index cache so the change is visible
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
        cached index must not resurrect stopped tasks)."""
        if self._specs.pop(job_id, None) is not None:
            self._invalidate(urgent=True)

    def _invalidate(self, urgent: bool = False) -> None:
        # Lazy by default: the cached index stays served until its TTL
        # lapses ("task updates can be reflected in runtime after the Task
        # Service caching expires (90 seconds) plus synchronization time",
        # section IV-D). The cache trades freshness for fan-out capacity.
        # An urgent change expires the TTL now; the bump makes the next
        # call rebuild.
        self.version.bump()
        if urgent:
            self._cached_at = -float("inf")

    # ------------------------------------------------------------------
    # Index serving
    # ------------------------------------------------------------------
    def shard_index(self) -> Dict[ShardId, Dict[TaskId, TaskSpec]]:
        """The spec table grouped by shard, ``{shard: {task_id: spec}}``,
        served from cache within the TTL.

        In the paper every Task Manager fetches the full snapshot and
        groups it by MD5 shard locally; the grouping is a pure function
        of the shared table, so the service builds it once for all of
        them. When the TTL lapses over an unchanged ``version``, the
        build is kept and only its TTL restarts. A rebuild keeps the
        previous build's dict for every shard whose tasks are the same
        spec objects, so an unchanged shard is the same object across
        builds and a Task Manager finds the changed ones by identity.

        Raises :class:`ServiceUnavailableError` when the service is down —
        callers keep their previous index in that case.
        """
        if not self.available:
            raise ServiceUnavailableError("Task Service is unavailable")
        now = self._engine.now
        previous = self._index
        if now - self._cached_at < CACHE_TTL:
            return previous
        self._cached_at = now
        if self._cached_version == self.version.value:
            return previous
        from repro.tasks.shard import shard_id_for_task

        index: Dict[ShardId, Dict[TaskId, TaskSpec]] = {}
        for specs in self._specs.values():
            for spec in specs:
                shard = shard_id_for_task(spec.task_id, self._num_shards)
                index.setdefault(shard, {})[spec.task_id] = spec
        for shard, tasks in index.items():
            if previous.get(shard) == tasks:
                index[shard] = previous[shard]
        self._index = index
        self._cached_version = self.version.value
        return index

    def specs_of(self, job_id: JobId) -> List[TaskSpec]:
        """The current specs of one job (empty when unknown)."""
        return list(self._specs.get(job_id, []))

    def job_ids(self) -> List[JobId]:
        """Jobs with at least one spec, sorted."""
        return sorted(self._specs)

    def __repr__(self) -> str:
        total = sum(len(specs) for specs in self._specs.values())
        return f"TaskService(jobs={len(self._specs)}, tasks={total})"
