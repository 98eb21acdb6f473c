"""The fleet loop against the loop it replaced, bit for bit.

``repro.tasks.manager.step_managers`` walks the managers in spawn order
and makes three decisions the old per-manager step did not: it passes a
container's CPU limit to the step only when the threads it hosts exceed
that limit (otherwise the contention pass could only answer "no
throttle"), it calls the manager's recovery / OOM work only when there
is some, and its read pass commits what a drain-all would as it reads,
putting the cursors back in one write when the water-fill must decide or
a cursor is out of range. The oracle is the old loop spelled out over
``repro.testing.reference.step_container_per_call``: every live manager,
its limit always passed, its post-step work always called, every commit
checked on its own.

Generated fleets mix running, restoring, crashed, passive and promoted
tasks of 1–4 threads, CPU limits on both sides of the hosted-thread sum,
slow factors, offline partitions, cursors up to 1e-6 past their head,
committed ``-0.0`` and cursors written out of range between two ticks.
Offsets and task floats are compared as ``float.hex`` after every tick,
the one that raised included, so a ``-0.0`` turned into ``0.0`` fails
too, and so does a raising step that leaves a commit behind.
"""

from contextlib import contextmanager
from math import inf, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.container import TurbineContainer
from repro.cluster.resources import ResourceVector
from repro.errors import ScribeError
from repro.scribe import ScribeBus
from repro.sim import Engine
from repro.tasks import RunningTask, TaskSpec
from repro.tasks.manager import TaskManager, step_managers
from repro.testing.reference import step_container_per_call
from repro.types import TaskState
from tests.tasks.test_step_equivalence import MAX_PARTITIONS, TASK_FIELDS, task_config

SLOT = st.integers(0, MAX_PARTITIONS - 1)

FLEET_TASK_FIELDS = {
    **TASK_FIELDS,
    "threads": st.integers(1, 4),
    #: Partitions whose cursor sits this far past the head (≤ 1e-6).
    "above_head": st.sets(SLOT, max_size=3),
    "above_by": st.sampled_from([1e-7, 5e-7, 1e-6]),
    #: Partitions with a committed ``-0.0``.
    "negative_zero": st.sets(SLOT, max_size=3),
    #: An open recovery-lag window the step may close.
    "recovering": st.booleans(),
}

#: A container's CPU limit, relative to the threads it hosts (``H``) and
#: runs (``R``): none, tight, between ``R`` and ``H``, at ``H``, one and a
#: few ulps either side of the edge the fleet loop tests, above, loose.
CPU_MODES = ["none", "tight", "running", "hosted", "edge-2", "edge+2", "above", "loose"]

CONTAINER_FIELDS = {
    "tasks": st.lists(st.fixed_dictionaries(FLEET_TASK_FIELDS), min_size=1, max_size=4),
    "cpu": st.sampled_from(CPU_MODES),
    "slow_factor": st.sampled_from([1.0, 1.0, 0.9, 0.37]),
    "alive": st.sampled_from([True, True, True, False]),
}

#: ``(dt, MB appended to every source category before the tick)``.
TICKS = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.7, 9.9, 10.0, 61.3]),
        st.floats(0.0, 3000.0) | st.floats(0.0, 2.0),
    ),
    min_size=2, max_size=4,
)

#: ``(task position, partition slot, cursor, tick)``: before that tick,
#: that task's job cursor at that partition is written past its head
#: (``+30``) or below zero (``-1``), so the tick raises.
CORRUPTIONS = st.tuples(
    st.integers(0, 15), SLOT, st.sampled_from([30.0, -1.0]), st.integers(0, 3)
)

fleets = st.fixed_dictionaries({
    "containers": st.lists(
        st.fixed_dictionaries(CONTAINER_FIELDS), min_size=1, max_size=4
    ),
    "ticks": TICKS,
    "corrupt": st.none(),
}) | st.fixed_dictionaries({
    # Slices a tick can drain in one write, so the corrupt cursor meets
    # a read pass that has already committed.
    "containers": st.lists(
        st.fixed_dictionaries({
            **CONTAINER_FIELDS,
            "tasks": st.lists(st.fixed_dictionaries({
                **FLEET_TASK_FIELDS,
                "skew": st.just(-0.7),
                "offline": st.sets(SLOT, max_size=1),
                "backlog_mb": st.floats(0.01, 2.0),
                "rate": st.sampled_from([1.7, 7.3]),
                "keys": st.just(0),
                "role": st.sampled_from(["running", "promoted"]),
            }), min_size=1, max_size=4),
        }),
        min_size=1, max_size=3,
    ),
    "ticks": st.lists(
        st.tuples(st.sampled_from([9.9, 10.0, 61.3]), st.floats(0.0, 2.0)),
        min_size=2, max_size=4,
    ),
    "corrupt": CORRUPTIONS,
})


def cpu_limit(mode, hosted, running):
    edge = hosted / (1.0 - 1e-9)
    return {
        "none": 0.0,
        "tight": 0.35,
        "running": running + 0.5 if running + 0.5 < hosted else hosted - 0.5,
        "hosted": float(hosted),
        "edge-2": nextafter(nextafter(edge, 0.0), 0.0),
        "edge+2": nextafter(nextafter(edge, inf), inf),
        "above": hosted + 0.5,
        "loose": 64.0,
    }[mode]


def contended(manager):
    """Whether the fleet loop passes ``manager``'s limit to the step."""
    cpu = manager.capacity.cpu
    return manager._hosted_threads > cpu * (1.0 - 1e-9)


class Fleet:
    """One scribe bus and a list of Task Managers hosting a drawn fleet."""

    def __init__(self, scenario):
        self.scribe = ScribeBus()
        engine = Engine(seed=0)
        self.managers, self.sources, self.killed = [], [], []
        self.corrupt = None
        shapes = [shape for box in scenario["containers"] for shape in box["tasks"]]
        position = 0
        for number, box in enumerate(scenario["containers"]):
            container = TurbineContainer(f"c{number}")
            manager = TaskManager(engine, container, None, None, self.scribe)
            manager.slow_factor = box["slow_factor"]
            for shape in box["tasks"]:
                self._host(manager, shape, position, shapes)
                position += 1
            assert manager._hosted_threads == sum(
                task.spec.threads for task in manager._hosted()
            )
            running = sum(
                task.spec.threads for task in manager._hosted()
                if task.state is TaskState.RUNNING
            )
            container.capacity = ResourceVector(
                cpu=cpu_limit(box["cpu"], manager._hosted_threads, running),
                memory_gb=64.0,
            )
            if not box["alive"]:
                container.kill()
            self.managers.append(manager)
        if scenario["corrupt"] is not None:
            self._corrupt(scenario["corrupt"], shapes)

    def _host(self, manager, shape, position, shapes):
        checkpoints = self.scribe.checkpoints
        job_id = f"job-{position}"
        category = self.scribe.create_category(f"in-{position}", shape["partitions"])
        category.set_weights([
            (slot + 1) ** -shape["skew"] for slot in range(shape["partitions"])
        ])
        category.append(shape["backlog_mb"])
        for slot in shape["offline"]:
            if slot < shape["partitions"]:
                category.partitions[slot].online = False
        for slot in shape["above_head"]:
            if slot < shape["partitions"]:
                partition = category.partitions[slot]
                checkpoints.commit(
                    job_id, partition.partition_id, partition.head + shape["above_by"]
                )
        for slot in shape["negative_zero"] - shape["above_head"]:
            if slot < shape["partitions"]:
                checkpoints.commit(job_id, category.partitions[slot].partition_id, -0.0)
        feeds_next = shape["feeds_next"] and position + 1 < len(shapes)
        if not (position and shapes[position - 1]["feeds_next"]):
            self.sources.append(category)
        task_count = 2 if shape["split"] else 1
        config = task_config(
            job_id, category.name, rate=shape["rate"], threads=shape["threads"],
            task_count=task_count, keys=shape["keys"], memory_gb=shape["memory_gb"],
            output_ratio=0.5,
            output_category=f"in-{position + 1}" if feeds_next else f"out-{position}",
        )
        for task_index in range(task_count):
            spec = TaskSpec.from_job_config(job_id, task_index, config)
            role = shape["role"]
            standby = role in ("passive", "promoted")
            task = RunningTask(spec, self.scribe, passive=standby)
            manager._host(task, None if standby else task_index)
            if role == "promoted":
                task.promote()
            elif role == "crashed":
                task.state = TaskState.CRASHED
            if shape["recovering"]:
                manager.note_task_failure(spec.task_id, 0.0)
        # Hosted then let go: the bound must drop with it.
        extra = RunningTask(TaskSpec.from_job_config(
            f"gone-{position}", 0,
            {**config, "task_count": 1, "threads_per_task": 3},
        ), self.scribe)
        manager._host(extra, -1)
        manager._unhost(extra)

    def _corrupt(self, corrupt, shapes):
        position, slot, cursor, tick = corrupt
        position %= len(shapes)
        self.corrupt = (
            f"job-{position}", f"in-{position}", shapes[position]["partitions"],
            slot % shapes[position]["partitions"], cursor, tick,
        )
        # The oracle passes every positive limit; the corrupt cursor
        # raises before the same commits on both sides only if the fleet
        # loop does too.
        for manager in self.managers:
            if not contended(manager):
                manager.container.capacity = ResourceVector(cpu=0.0, memory_gb=64.0)

    def observe(self):
        checkpoints = self.scribe.checkpoints
        return {
            "offsets": [
                (job_id, [
                    (partition_id, offset.hex())
                    for partition_id, offset in checkpoints.snapshot(job_id).items()
                ])
                for job_id in sorted(checkpoints.job_ids())
            ],
            "heads": [
                (name, [head.hex() for head in category.heads])
                for name, category in self.scribe.categories.items()
            ],
            "tasks": [
                (
                    manager.container_id, task.spec.task_id, task.state,
                    task.last_rate_mb.hex(), task.last_cpu_used.hex(),
                    task.total_processed_mb.hex(),
                    task.restore_remaining_mb.hex(), task.oom_count,
                )
                for manager in self.managers for task in manager._hosted()
            ],
            "managers": [
                (manager._last_step_time, dict(manager._failed_at), manager.oom_events)
                for manager in self.managers
            ],
            "oom_killed": list(self.killed),
        }


@contextmanager
def recording_ooms(*fleets):
    """Inside the block, every OOM restart of a fleet's manager lands in
    that fleet's ``killed`` as ``(container id, task id)``. The patch is
    on the class: a manager is slotted and takes no instance attribute."""
    owner = {id(manager): fleet for fleet in fleets for manager in fleet.managers}
    handle = TaskManager._handle_oom

    def recording(manager, task):
        owner[id(manager)].killed.append((manager.container_id, task.spec.task_id))
        handle(manager, task)

    TaskManager._handle_oom = recording
    try:
        yield
    finally:
        TaskManager._handle_oom = handle


def oracle_step(scribe, managers, now):
    """The loop ``step_managers`` replaced, over the per-call step."""
    for manager in managers:
        dt = now - manager._last_step_time
        manager._last_step_time = now
        if not manager.alive or dt <= 0:
            continue
        oom_killed = step_container_per_call(
            scribe, manager.tasks.values(), manager.standbys.values(), dt,
            manager.capacity.cpu, manager.slow_factor,
        )
        manager._after_step(now, oom_killed)


def tick(fleet, step, now, appended_mb, number):
    for category in fleet.sources:
        category.append(appended_mb)
    if fleet.corrupt is not None and fleet.corrupt[-1] == number:
        job_id, name, size, index, cursor, _ = fleet.corrupt
        category = fleet.scribe.get_category(name)
        column = fleet.scribe.checkpoints.column(job_id, name, size)
        column[index] = cursor if cursor < 0 else category.heads[index] + cursor
    try:
        step(fleet.scribe, fleet.managers, now)
    except ScribeError as error:
        return str(error)
    return None


def run_fleet(scenario):
    """Tick both fleets; returns whether any step raised and whether any
    container ran its contention pass."""
    fleet, oracle = Fleet(scenario), Fleet(scenario)
    assert fleet.observe() == oracle.observe()
    any_contended = any(
        contended(manager) and manager.capacity.cpu > 0 and manager.alive
        for manager in fleet.managers
    )
    now = 0.0
    with recording_ooms(fleet, oracle):
        for number, (dt, appended_mb) in enumerate(scenario["ticks"]):
            now += dt
            errors = [
                tick(fleet, step_managers, now, appended_mb, number),
                tick(oracle, oracle_step, now, appended_mb, number),
            ]
            assert errors[0] == errors[1]
            assert fleet.observe() == oracle.observe()
            if errors[0] is not None:
                return True, any_contended
    return False, any_contended


def test_fleet_loop_equals_the_per_manager_per_call_loop_bit_for_bit():
    hits = {"examples": 0, "raised": 0, "contended": 0, "corrupt": 0}

    @settings(max_examples=150, deadline=None, database=None)
    @given(scenario=fleets)
    def equivalent(scenario):
        raised, any_contended = run_fleet(scenario)
        hits["examples"] += 1
        hits["raised"] += raised
        hits["contended"] += any_contended
        hits["corrupt"] += scenario["corrupt"] is not None

    equivalent()
    # Throttled containers, corrupt cursors and raising ticks all occur.
    assert hits["contended"] >= 0.1 * hits["examples"], hits
    assert hits["corrupt"] >= 0.1 * hits["examples"], hits
    assert hits["raised"] >= 1, hits


# ----------------------------------------------------------------------
# The read pass's commits, and a column moved between two ticks
# ----------------------------------------------------------------------
HEAD = 100.0


def drained_task(cursors):
    """One running 2-thread task owning the four partitions of ``cat``,
    at head 100 each, committed at ``cursors``: its next step drains all
    four as it reads them (readables ascend, and fit the cap and budget)."""
    scribe = ScribeBus()
    category = scribe.create_category("cat", 4)
    category.append(4 * HEAD)
    for index, cursor in enumerate(cursors):
        scribe.checkpoints.commit("job", f"cat/{index}", cursor)
    config = task_config("job", "cat", rate=10.0, threads=2)
    return scribe, RunningTask(TaskSpec.from_job_config("job", 0, config), scribe)


class TestDrainAllCommitAfterAMove:
    """The read pass commits as it reads; a column another writer moved
    between two ticks is read as it stands."""

    def test_an_unmoved_column_takes_the_one_write(self):
        scribe, task = drained_task([90.0, 88.0, 85.0, 80.0])
        step_managers_alone(scribe, task)
        assert scribe.checkpoints.columns["job"]["cat"] == [HEAD] * 4
        assert task.total_processed_mb == 10.0 + 12.0 + 15.0 + 20.0

    def test_a_column_moved_ahead_raises(self):
        """Another writer committed past the head since the last tick: the
        read pass raises there, and the partition it had already drained
        gets its cursor back."""
        scribe, task = drained_task([90.0, 88.0, 85.0, 80.0])
        column = scribe.checkpoints.columns["job"]["cat"]
        column[1] = HEAD + 30.0
        with pytest.raises(ScribeError, match="beyond head"):
            step_managers_alone(scribe, task)
        assert column == [90.0, HEAD + 30.0, 85.0, 80.0]

    @pytest.mark.parametrize("cursor, message", [
        (HEAD + 30.0, "beyond head"), (-1.0, "negative offset"),
    ])
    @pytest.mark.parametrize("index", range(4))
    def test_a_cursor_out_of_range_leaves_the_whole_column_as_it_was(
        self, index, cursor, message
    ):
        """Out of range at the k-th partition: the k partitions before it
        were committed as they were read, and each gets back the very
        object it held."""
        cursors = [90.0, 88.0, 85.0, 80.0]
        scribe, task = drained_task(cursors)
        column = scribe.checkpoints.columns["job"]["cat"]
        column[index] = cursor
        before = list(column)
        with pytest.raises(ScribeError, match=message):
            step_managers_alone(scribe, task)
        assert all(now is then for now, then in zip(column, before))
        assert task.total_processed_mb == 0.0


def step_managers_alone(scribe, task):
    """One fleet-loop tick of a lone task in an unlimited container."""
    container = TurbineContainer("c0", ResourceVector(cpu=0.0, memory_gb=64.0))
    manager = TaskManager(Engine(seed=0), container, None, None, scribe)
    manager._host(task, 0)
    step_managers(scribe, [manager], 10.0)
