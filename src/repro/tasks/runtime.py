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

What the step reads of a task is shared wherever it can be: the job's
*lane* (its input category's columns and the spec fields the step needs)
is resolved once per spec template and kept on it, and a task's
partition window is one ``(range, slice)`` pair per distinct window. What
a :class:`RunningTask` keeps of its own is its state and its counters.
"""

from __future__ import annotations

from math import inf
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.scribe.bus import ScribeBus
from repro.scribe.category import Category
from repro.scribe.partition import Partition
from repro.tasks.spec import SpecTemplate, TaskSpec
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


def step_container(
    scribe: ScribeBus,
    primaries: Iterable["RunningTask"],
    standbys: Iterable["RunningTask"],
    dt: Seconds,
    cpu_capacity: float,
    slow_factor: float = 1.0,
) -> List["RunningTask"]:
    """One Turbine container's cgroup step over ``dt > 0`` seconds: the
    only data-plane step body.

    Steps ``primaries`` then ``standbys`` in the order given — a task's
    commits and downstream publishes are visible to every task stepped
    after it — and returns the tasks the cgroup OOM-killed (now
    ``CRASHED``; restarting them is the caller's business).

    A contention pass, run only for a positive ``cpu_capacity`` (the
    fleet loop passes 0.0 for a container whose hosted threads fit its
    limit, :func:`~repro.tasks.manager.step_managers`), and a step pass:
    straight loops over local variables with no Python call per task or
    per partition (but the memory sum of a task that could outgrow its
    cgroup). A task reads its job's lane (shared by the job's tasks) and
    its own partition window: a range of partition numbers into the
    category's head and online columns and the job's offsets column, all
    read in place by index, with the range checks of ``Partition`` kept
    inline. Every commit is a cursor just read plus a positive amount, so
    none can move a checkpoint backwards. The offsets column is looked up
    again per task and never kept, so a ``drop_job`` between ticks cannot
    leave commits in a dead column.

    The order of every float operation is part of the contract (the
    recorded exports pin the low bits); DESIGN.md, "Data-plane stepping",
    lists it.
    """
    running = TaskState.RUNNING
    checkpoints = scribe.checkpoints
    columns_by_job = checkpoints.columns
    groups = (primaries, standbys)

    # Contention: the container's cgroup CPU limit is shared. When the
    # tasks collectively want more cores than the container has, everyone
    # slows down proportionally — this is what produces lag on hot
    # containers (the paper's Fig. 7 observation).
    throttle = 1.0
    if cpu_capacity > 0:
        desired = 0
        for group in groups:
            wanted = 0
            for task in group:
                if task.state is not running:
                    continue
                if task.restore_remaining_mb > 1e-9:
                    wanted += 1.0  # restore is I/O+CPU heavy
                    continue
                name, heads, online, category, job_id, rate, task_threads, _ = (
                    task._lane or task._resolve_lane()
                )
                indices = task._window[0]
                try:
                    offsets = columns_by_job[job_id][name]
                except KeyError:
                    offsets = checkpoints.column(job_id, name, len(heads))
                lag = 0
                for index in indices:
                    offset = offsets[index]
                    head = heads[index]
                    if offset < 0 or offset > head + 1e-6:
                        raise category.partitions[index].offset_error(offset)
                    lag += head - offset
                if rate > 0:
                    # Cores to drain min(P·k·dt, backlog): a saturated
                    # thread uses ~1 core.
                    drain_mb = rate * task_threads * dt
                    if lag < drain_mb:
                        drain_mb = lag
                    wanted += (drain_mb / dt) / rate
            desired += wanted
        if desired > cpu_capacity:
            throttle = cpu_capacity / desired
    # A gray node processes slower without looking unhealthy: the
    # degradation lands in the data-plane throttle, never in heartbeats
    # or liveness.
    throttle *= slow_factor
    if not 0.0 <= throttle <= 1.0:
        throttle = min(1.0, max(0.0, throttle))

    oom_killed: List[RunningTask] = []
    for group in groups:
        for task in group:
            if task.state is not running:
                # Passive replicas, crashed and stopped tasks read nothing.
                task.last_rate_mb = 0.0
                task.last_cpu_used = 0.0
                continue
            step_dt = dt
            restore_mb = task.restore_remaining_mb
            if restore_mb > 1e-9:
                # Spend the step on state restore first; leftover time
                # processes, and the rate is over that leftover.
                restored = min(restore_mb, STATE_RESTORE_RATE_MB * dt)
                task.restore_remaining_mb = restore_mb - restored
                step_dt = dt - restored / STATE_RESTORE_RATE_MB
                if step_dt <= 1e-12:
                    task.last_rate_mb = 0.0
                    task.last_cpu_used = 1.0  # restore is I/O+CPU heavy
                    continue
            name, heads, online, category, job_id, rate, task_threads, output = (
                task._lane or task._resolve_lane()
            )
            indices, window = task._window
            try:
                offsets = columns_by_job[job_id][name]
            except KeyError:
                offsets = checkpoints.column(job_id, name, len(heads))
            budget = rate * task_threads * step_dt * throttle
            per_partition_cap = rate * step_dt * throttle
            # One pass reads the cursors in slice order and what the
            # drain-all test needs of the readable bytes, and commits what
            # a drain-all would: a partition with nothing readable keeps
            # the very object it holds. An offline partition is checked
            # like any other and reads 0. Nothing else runs between a
            # read and its commit, so no commit can land below a cursor.
            cursors = []
            total = 0.0
            processed = 0.0
            last = -inf
            ascending = True
            for index in indices:
                offset = offsets[index]
                head = heads[index]
                if offset < 0 or offset > head + 1e-6:
                    for done, cursor in zip(indices, cursors):
                        offsets[done] = cursor
                    raise category.partitions[index].offset_error(offset)
                readable = head - offset if online[index] else 0.0
                if readable < last:
                    ascending = False
                last = readable
                total += readable
                cursors.append(offset)
                if readable > 0:
                    processed += readable
                    offsets[index] = offset + readable
            if not (
                ascending and last <= per_partition_cap and budget > 1e-2
                and total <= budget * (1.0 - 1e-9)
            ):
                # A share or the cap would bind, or the water-fill below
                # would not visit these in slice order (DESIGN.md,
                # "Data-plane stepping"): the cursors go back in one write
                # and the water-fill decides. Otherwise every partition
                # drained fully, as committed above.
                offsets[window] = cursors
                # Max-min fair water-filling across the owned partitions:
                # visiting them in ascending order of availability (ties
                # in slice order) and giving each ``budget / remaining``
                # guarantees every backlogged partition gets its fair
                # share AND all leftover capacity reaches the hot ones — a
                # skewed partition is never starved to ``capacity / n``.
                #
                # One hard ceiling remains: a partition is a serial stream
                # with a single reader thread, so no partition can be
                # drained faster than one thread's rate (``P · dt``). This
                # is why shuffling work across *partitions* — not just
                # adding threads — matters for hot keys.
                readables = [
                    heads[index] - offset if online[index] else 0.0
                    for index, offset in zip(indices, cursors)
                ]
                # Partition numbers are unique, so no two entries tie past
                # the readable bytes, and a tie there keeps slice order.
                entries = sorted(zip(readables, indices, cursors))
                processed = 0.0
                remaining = len(entries)
                for available, index, offset in entries:
                    if budget <= 1e-12:
                        break
                    # consumed = min(available, share, cap), spelled out.
                    consumed = available
                    share = budget / remaining
                    if share < consumed:
                        consumed = share
                    if per_partition_cap < consumed:
                        consumed = per_partition_cap
                    if consumed > 0:
                        offsets[index] = offset + consumed
                        processed += consumed
                        budget -= consumed
                    remaining -= 1
            task.total_processed_mb += processed
            # Downstream publish: a job in the middle of a pipeline writes
            # its (reduced) output to another set of Scribe partitions.
            if processed > 0 and output:
                scribe.ensure_category(output, DEFAULT_OUTPUT_PARTITIONS).append(
                    processed * task.spec.output_ratio
                )
            rate_mb = processed / step_dt
            task.last_rate_mb = rate_mb
            # CPU ∝ processed bytes; a saturated thread uses ~1 core.
            task.last_cpu_used = rate_mb / rate if rate > 0 else 0.0
            # Only a task that could outgrow its cgroup pays for the sum.
            if task._may_oom and 0 < task.spec.resources.memory_gb < _memory_needed_gb(
                task.spec.template, rate_mb
            ):
                # cgroup kill: stats are preserved and read back on
                # restart (paper section V-A).
                task.state = TaskState.CRASHED
                task.oom_count += 1
                oom_killed.append(task)
    return oom_killed


class _Lane(NamedTuple):
    """What the step reads of a job, resolved once per spec template (and
    kept on it, :attr:`~repro.tasks.spec.SpecTemplate.lane`): its input
    partitions as its category's columns see them, and the fields of its
    (immutable) template the step needs on every tick."""

    #: The input category's name: the key of the job's offsets column.
    name: str
    #: The category's :attr:`~Category.heads` and :attr:`~Category.online`.
    heads: List[float]
    online: List[bool]
    #: ``None`` for a job without an input category.
    category: Optional[Category]
    job_id: str
    #: ``P``, ``k`` and where processed bytes are published (if anywhere).
    rate: float
    threads: int
    output: str


#: One ``(range, slice)`` pair per distinct partition window, shared by
#: every task that owns one: a fleet of equal jobs keeps a pair per task
#: index, not one per task.
_WINDOWS: Dict[range, Tuple[range, slice]] = {}


def _windows(indices: range) -> Tuple[range, slice]:
    """``indices`` and the same partition numbers as a column slice."""
    pair = _WINDOWS.get(indices)
    if pair is None:
        pair = _WINDOWS[indices] = (
            indices, slice(indices.start, indices.stop, indices.step)
        )
    return pair


#: The window of a task without an input category.
_NO_WINDOW = _windows(range(0))


def _memory_needed_gb(spec: SpecTemplate, rate_mb: float) -> float:
    """Memory a task of template ``spec`` needs at ``rate_mb``:
    non-decreasing in ``rate_mb``, term by term and so in floating point
    too."""
    needed = BASE_MEMORY_GB + spec.memory_overhead_gb + rate_mb * BUFFER_SECONDS / 1000.0
    if spec.stateful and spec.task_count > 0:
        keys_here = spec.state_key_cardinality / spec.task_count
        needed += (keys_here / 1e6) * STATE_GB_PER_MILLION_KEYS
    return needed


class RunningTask:
    """One task instance executing inside a Turbine container."""

    __slots__ = (
        "spec", "_scribe", "state", "shard_id", "promoted", "oom_count",
        "total_processed_mb", "last_rate_mb", "last_cpu_used", "_lane",
        "_window", "restore_remaining_mb", "_may_oom",
    )

    def __init__(
        self, spec: TaskSpec, scribe: ScribeBus, passive: bool = False
    ) -> None:
        self.spec = spec
        rate = spec.rate_per_thread_mb
        #: False when even a saturated task — rate ``P · k``, with a 1e-9
        #: margin for rounding — fits its reservation: no OOM check then.
        self._may_oom = not rate > 0 or _memory_needed_gb(
            spec.template, max(rate * spec.threads, 0.0) * (1.0 + 1e-9)
        ) > spec.resources.memory_gb
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
        #: The job's lane and this task's ``(range, slice)`` partition
        #: window, both shared, resolved on the first step
        #: (:meth:`_resolve_lane`).
        self._lane: Optional[_Lane] = None
        self._window = _NO_WINDOW
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
    def _resolve_lane(self) -> _Lane:
        """Look up the job's lane and the disjoint partition window this
        task owns, once. The lane is kept on the spec's template for the
        job's other tasks, unless it was resolved against another bus."""
        spec = self.spec
        template = spec.template
        name = spec.input_category
        category = self._scribe.get_category(name) if name else None
        lane = template.lane
        if lane is None or lane.category is not category:
            heads, online = ([], []) if category is None else (
                category.heads, category.online
            )
            lane = template.lane = _Lane(
                name, heads, online, category, spec.job_id,
                template.rate_per_thread_mb, template.threads,
                template.output_category,
            )
        if category is not None:
            self._window = _windows(
                category.slice_indices(spec.task_index, spec.task_count)
            )
        self._lane = lane
        return lane

    @property
    def partitions(self) -> List[Partition]:
        """Handles on the partitions this task owns, in slice order."""
        category = (self._lane or self._resolve_lane()).category
        if category is None:
            return []
        return [category.partitions[index] for index in self._window[0]]

    # ------------------------------------------------------------------
    # Footprint
    # ------------------------------------------------------------------
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
        """Memory this task needs at its current processing rate (the sum
        :func:`step_container`'s OOM check takes)."""
        return _memory_needed_gb(self.spec.template, self.last_rate_mb)

    # ------------------------------------------------------------------
    # Lag accounting
    # ------------------------------------------------------------------
    def bytes_lagged_mb(self) -> float:
        """Unprocessed bytes across this task's partitions."""
        category = (self._lane or self._resolve_lane()).category
        if category is None:
            return 0.0
        return self._scribe.checkpoints.lag_mb(
            self.spec.job_id, category, self._window[0]
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
