"""The simulated task runtime — the data plane.

In production this is the stream-processing engine binary; here it is a
model that preserves the behaviours the control plane observes and reacts
to:

* each task drains its disjoint Scribe partition slice at a rate bounded by
  ``P · k`` (the per-thread max stable rate times the thread count,
  equation 2 of the paper) — tasks are the unit of processing capacity;
* CPU usage is proportional to bytes processed ("CPU consumption is
  approximately proportional to the size of input and output data",
  section V-B);
* memory usage is a base footprint (~0.4 GB, the floor visible in Fig. 5b)
  plus a few seconds of buffered input, plus — for stateful jobs — a
  key-cardinality term;
* a task whose memory need exceeds its reservation crashes with OOM, which
  the Task Manager reports to the scaler's symptom detector;
* progress is checkpointed per partition, so restarts resume exactly where
  the previous incarnation stopped.
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Sequence, Tuple

from repro.scribe.bus import ScribeBus
from repro.scribe.partition import Partition
from repro.tasks.spec import TaskSpec
from repro.types import Seconds, ShardId, TaskState

#: Memory floor per task: "every task consumes at least ~400MB, regardless
#: of the input traffic volume" (paper section VI, Fig. 5b).
BASE_MEMORY_GB = 0.4

#: Seconds of input data a task buffers in memory ("a tailer holds a few
#: seconds worth of data in memory before processing and flushing").
BUFFER_SECONDS = 5.0

#: GB of input buffered per MB/s of input rate is BUFFER_SECONDS / 1000;
#: state memory per million keys for stateful jobs:
STATE_GB_PER_MILLION_KEYS = 0.25

#: Partition count used when a task's output category does not exist yet
#: (the downstream consumer's provisioning normally creates it first).
DEFAULT_OUTPUT_PARTITIONS = 32

#: Disk per million keys for stateful jobs (spill + checkpointed state).
DISK_GB_PER_MILLION_KEYS = 1.0

#: Rate at which a stateful task restores its state from persistent
#: storage on (re)start, MB/s. "Stateful jobs ... must restore relevant
#: parts of the state on restarts" (paper section V-B) — restore time is
#: what makes stateful rescaling slower than stateless.
STATE_RESTORE_RATE_MB = 200.0


class StepPlan(NamedTuple):
    """The pure outcome of one task step — data, not side effects.

    Computed by :func:`plan_task_step` from a read-only view of the
    task's partitions and applied by :func:`apply_step_plan`. A plan is
    a plain tuple of floats/ints and carries no references into
    simulation state.
    """

    #: False for the not-running / non-positive-dt path (rates zeroed).
    ran: bool
    #: True when state restore consumed the whole step.
    restore_only: bool
    processed_mb: float
    #: ``(seq, new_offset)`` per drained partition, where ``seq`` indexes
    #: the task's partition slice in its canonical (ascending) order.
    commits: Tuple[Tuple[int, float], ...]
    new_restore_remaining_mb: float
    last_rate_mb: float
    last_cpu_used: float
    crashed: bool


#: A no-op plan for tasks that are not running (or got a dt <= 0 step).
IDLE_PLAN = StepPlan(False, False, 0.0, (), 0.0, 0.0, 0.0, False)


def plan_memory_needed_gb(
    last_rate_mb: float,
    memory_overhead_gb: float,
    stateful: bool,
    state_key_cardinality: int,
    task_count: int,
) -> float:
    """Memory a task needs at ``last_rate_mb`` — the OOM-check input."""
    needed = (
        BASE_MEMORY_GB
        + memory_overhead_gb
        + last_rate_mb * BUFFER_SECONDS / 1000.0
    )
    if stateful and task_count > 0:
        keys_here = state_key_cardinality / task_count
        needed += (keys_here / 1e6) * STATE_GB_PER_MILLION_KEYS
    return needed


def plan_task_step(
    entries: Sequence[Tuple[float, float]],
    dt: Seconds,
    throttle: float,
    restore_remaining_mb: float,
    max_rate_mb: float,
    rate_per_thread_mb: float,
    memory_overhead_gb: float,
    stateful: bool,
    state_key_cardinality: int,
    task_count: int,
    reserved_memory_gb: float,
) -> StepPlan:
    """Plan one task step from a read-only partition view.

    ``entries`` is ``(readable_mb, committed_offset)`` per partition of
    the task's slice, in canonical (ascending partition index) order.
    """
    if dt <= 0:
        return IDLE_PLAN
    throttle = min(1.0, max(0.0, throttle))

    # Spend the step on state restore first; leftover time processes.
    if restore_remaining_mb > 1e-9:
        restored = min(restore_remaining_mb, STATE_RESTORE_RATE_MB * dt)
        restore_remaining_mb -= restored
        dt -= restored / STATE_RESTORE_RATE_MB
        if dt <= 1e-12:
            return StepPlan(
                True, True, 0.0, (), restore_remaining_mb, 0.0, 1.0, False
            )

    budget = max_rate_mb * dt * throttle
    processed = 0.0
    # Max-min fair water-filling across the owned partitions: visiting
    # them in ascending order of availability and giving each
    # ``budget / remaining`` guarantees every backlogged partition gets
    # its fair share AND all leftover capacity reaches the hot ones —
    # a skewed partition is never starved to ``capacity / n``.
    #
    # One hard ceiling remains: a partition is a serial stream with a
    # single reader thread, so no partition can be drained faster than
    # one thread's rate (``P · dt``). This is why shuffling work across
    # *partitions* — not just adding threads — matters for hot keys.
    per_partition_cap = rate_per_thread_mb * dt * throttle
    ordered = [
        (readable, seq, offset)
        for seq, (readable, offset) in enumerate(entries)
    ]
    ordered.sort(key=lambda entry: entry[0])
    commits = []
    remaining = len(ordered)
    for available, seq, offset in ordered:
        if budget <= 1e-12:
            break
        share = budget / remaining
        consumed = min(available, share, per_partition_cap)
        if consumed > 0:
            commits.append((seq, offset + consumed))
            processed += consumed
            budget -= consumed
        remaining -= 1

    last_rate_mb = processed / dt
    # CPU ∝ processed bytes; a saturated thread uses ~1 core.
    if rate_per_thread_mb > 0:
        last_cpu_used = last_rate_mb / rate_per_thread_mb
    else:
        last_cpu_used = 0.0
    crashed = reserved_memory_gb > 0 and (
        plan_memory_needed_gb(
            last_rate_mb,
            memory_overhead_gb,
            stateful,
            state_key_cardinality,
            task_count,
        )
        > reserved_memory_gb
    )
    return StepPlan(
        True,
        False,
        processed,
        tuple(commits),
        restore_remaining_mb,
        last_rate_mb,
        last_cpu_used,
        crashed,
    )


def apply_step_plan(
    task: "RunningTask", plan: StepPlan, scribe: ScribeBus
) -> float:
    """Apply a :class:`StepPlan` to authoritative state.

    The single write path for task-step effects: checkpoint commits,
    downstream publish, usage metrics, OOM state.
    """
    if not plan.ran:
        task.last_rate_mb = 0.0
        task.last_cpu_used = 0.0
        return 0.0
    task.restore_remaining_mb = plan.new_restore_remaining_mb
    if plan.restore_only:
        task.last_rate_mb = 0.0
        task.last_cpu_used = 1.0  # restore is I/O+CPU heavy
        return 0.0
    checkpoints = scribe.checkpoints
    partitions = task.partitions
    for seq, new_offset in plan.commits:
        checkpoints.commit(
            task.spec.job_id, partitions[seq].partition_id, new_offset
        )
    task.total_processed_mb += plan.processed_mb
    # Downstream publish: a job in the middle of a pipeline writes its
    # (reduced) output to another set of Scribe partitions.
    if plan.processed_mb > 0 and task.spec.output_category:
        output = scribe.ensure_category(
            task.spec.output_category, DEFAULT_OUTPUT_PARTITIONS
        )
        output.append(plan.processed_mb * task.spec.output_ratio)
    task.last_rate_mb = plan.last_rate_mb
    task.last_cpu_used = plan.last_cpu_used
    if plan.crashed:
        # cgroup kill: stats are preserved and read back on restart
        # (paper section V-A).
        task.state = TaskState.CRASHED
        task.oom_count += 1
    return plan.processed_mb


class RunningTask:
    """One task instance executing inside a Turbine container."""

    def __init__(
        self, spec: TaskSpec, scribe: ScribeBus, passive: bool = False
    ) -> None:
        self.spec = spec
        self._scribe = scribe
        self.state = TaskState.STANDBY if passive else TaskState.RUNNING
        #: The shard this task was started for, set by the hosting Task
        #: Manager; ``None`` for a standby replica (no shard assignment).
        self.shard_id: Optional[ShardId] = None
        #: True once a passive standby has been promoted to primary.
        self.promoted = False
        self.oom_count = 0
        #: Bytes (MB) processed since start, for per-task rate metrics.
        self.total_processed_mb = 0.0
        #: Most recent step's processing rate (MB/s) and cpu cores used.
        self.last_rate_mb = 0.0
        self.last_cpu_used = 0.0
        self._partitions: Optional[List[Partition]] = None
        #: Stateful tasks must re-load their state before processing.
        #: A passive standby tails the primary's checkpoint stream, so its
        #: state is already warm — promotion skips the restore entirely
        #: (that is the whole point of paying for the replica).
        self.restore_remaining_mb = (
            0.0 if passive else self._initial_state_mb()
        )

    def _initial_state_mb(self) -> float:
        if not self.spec.stateful or self.spec.task_count <= 0:
            return 0.0
        keys_here = self.spec.state_key_cardinality / self.spec.task_count
        return (keys_here / 1e6) * STATE_GB_PER_MILLION_KEYS * 1000.0

    @property
    def restoring(self) -> bool:
        """True while state restore is still in progress."""
        return self.restore_remaining_mb > 1e-9

    # ------------------------------------------------------------------
    # Partition ownership
    # ------------------------------------------------------------------
    @property
    def partitions(self) -> List[Partition]:
        """The disjoint partition slice this task owns (lazy lookup)."""
        if self._partitions is None:
            if not self.spec.input_category:
                self._partitions = []
            else:
                category = self._scribe.get_category(self.spec.input_category)
                self._partitions = category.partition_slice(
                    self.spec.task_index, self.spec.task_count
                )
        return self._partitions

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def max_rate_mb(self) -> float:
        """Maximum stable processing rate: ``P · k`` (equation 2)."""
        return self.spec.rate_per_thread_mb * self.spec.threads

    def desired_cores(self, dt: Seconds) -> float:
        """CPU cores this task would burn next step, given its backlog.

        Used by the Task Manager's contention model: the container's
        cgroup limit is shared, so when the sum of desired cores exceeds
        the container's CPU capacity, every task is throttled
        proportionally.
        """
        if self.state != TaskState.RUNNING or dt <= 0:
            return 0.0
        if self.restoring:
            return 1.0
        desired_mb = min(self.max_rate_mb() * dt, self.bytes_lagged_mb())
        rate_per_thread_mb = self.spec.rate_per_thread_mb
        if rate_per_thread_mb <= 0:
            return 0.0
        return (desired_mb / dt) / rate_per_thread_mb

    def partition_entries(self) -> List[Tuple[float, float]]:
        """``(readable_mb, committed_offset)`` per owned partition, in
        canonical slice order — the read-only view :func:`plan_task_step`
        consumes."""
        checkpoints = self._scribe.checkpoints
        job_id = self.spec.job_id
        entries = []
        for partition in self.partitions:
            offset = checkpoints.get(job_id, partition.partition_id)
            entries.append((partition.readable(offset), offset))
        return entries

    def plan_step(self, dt: Seconds, throttle: float = 1.0) -> StepPlan:
        """Plan one step against the live partition state (no effects)."""
        if self.state != TaskState.RUNNING or dt <= 0:
            return IDLE_PLAN
        return plan_task_step(
            entries=self.partition_entries(),
            dt=dt,
            throttle=throttle,
            restore_remaining_mb=self.restore_remaining_mb,
            max_rate_mb=self.max_rate_mb(),
            rate_per_thread_mb=self.spec.rate_per_thread_mb,
            memory_overhead_gb=self.spec.memory_overhead_gb,
            stateful=self.spec.stateful,
            state_key_cardinality=self.spec.state_key_cardinality,
            task_count=self.spec.task_count,
            reserved_memory_gb=self.spec.resources.memory_gb,
        )

    def step(self, dt: Seconds, throttle: float = 1.0) -> float:
        """Process up to ``max_rate · dt · throttle`` MB from the owned
        partitions.

        ``throttle`` in (0, 1] models cgroup CPU contention within the
        Turbine container. Returns MB processed. Updates checkpoints,
        usage metrics, and the task's OOM state. A crashed/stopped task
        processes nothing.

        Implemented as plan-then-apply: :func:`plan_task_step` is a pure
        function of a partition view, :func:`apply_step_plan` the single
        write path.
        """
        return apply_step_plan(self, self.plan_step(dt, throttle), self._scribe)

    def disk_needed_gb(self) -> float:
        """Local disk this task holds (stateful state spill + checkpoints).

        "For a join operator, the memory/disk size is proportional to the
        join window size, the degree of input matching, and the degree of
        input disorder" — modelled, like memory, as proportional to the
        per-task key cardinality.
        """
        if not self.spec.stateful or self.spec.task_count <= 0:
            return 0.0
        keys_here = self.spec.state_key_cardinality / self.spec.task_count
        return (keys_here / 1e6) * DISK_GB_PER_MILLION_KEYS

    def memory_needed_gb(self) -> float:
        """Memory this task needs at its current processing rate."""
        return plan_memory_needed_gb(
            self.last_rate_mb,
            self.spec.memory_overhead_gb,
            self.spec.stateful,
            self.spec.state_key_cardinality,
            self.spec.task_count,
        )

    # ------------------------------------------------------------------
    # Lag accounting
    # ------------------------------------------------------------------
    def bytes_lagged_mb(self) -> float:
        """Unprocessed bytes across this task's partitions."""
        checkpoints = self._scribe.checkpoints
        return sum(
            partition.available(
                checkpoints.get(self.spec.job_id, partition.partition_id)
            )
            for partition in self.partitions
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def stop(self) -> None:
        """Stop cleanly; the checkpoint already reflects all processed data."""
        self.state = TaskState.STOPPED

    def restart(self) -> None:
        """Restart after a crash; resumes from the committed checkpoints.

        A stateful task restores its persistent state again — restarts of
        stateful jobs are never free.
        """
        self.state = TaskState.RUNNING
        self.restore_remaining_mb = self._initial_state_mb()

    def promote(self) -> None:
        """Promote a passive standby to primary.

        The replica has been tailing the primary's checkpoint stream, so
        it starts processing immediately — no reboot clock, no state
        restore. Promoting a non-standby is a bug, not a no-op.
        """
        if self.state != TaskState.STANDBY:
            raise ValueError(
                f"cannot promote {self.spec.task_id}: state is "
                f"{self.state.value}, not standby"
            )
        self.state = TaskState.RUNNING
        self.promoted = True

    def __repr__(self) -> str:
        return (
            f"RunningTask({self.spec.task_id!r}, {self.state.value}, "
            f"rate={self.last_rate_mb:.2f}MB/s)"
        )
