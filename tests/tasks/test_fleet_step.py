"""The fleet loop against the loop it replaced, bit for bit.

``repro.tasks.manager.step_managers`` walks the managers in spawn order
and makes three decisions the old per-manager step did not: it passes a
container's CPU limit to the step only when the threads it hosts exceed
that limit (otherwise the contention pass could only answer "no
throttle"), it calls the manager's recovery / OOM work only when there
is some, and a drain-all task commits its slice in one write once the
column still holds what the read pass saw. The oracle is the old loop
spelled out over ``repro.testing.reference.step_container_per_call``:
every live manager, its limit always passed, its post-step work always
called, every commit checked on its own.

Generated fleets mix running, restoring, crashed, passive and promoted
tasks of 1–4 threads, CPU limits on both sides of the hosted-thread sum,
slow factors, offline partitions, cursors up to 1e-6 past their head,
committed ``-0.0`` and cursor columns that move between a task's read
and its commit. Offsets and task floats are compared as ``float.hex``,
so a ``-0.0`` turned into ``0.0`` fails too.
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

#: ``(task position, partition slot, delta)``: that task's job column
#: moves by ``delta`` right after the first read of that partition in
#: every tick. ``+30`` lands past the head, so the commit would regress
#: it; the small deltas move a cursor with nothing left to read.
MOVES = st.tuples(
    st.integers(0, 15), SLOT, st.sampled_from([30.0, 5e-7, 1e-3, -1e-3, -30.0])
)

fleets = st.fixed_dictionaries({
    "containers": st.lists(
        st.fixed_dictionaries(CONTAINER_FIELDS), min_size=1, max_size=4
    ),
    "ticks": TICKS,
    "move": st.none(),
}) | st.fixed_dictionaries({
    # Slices a tick can drain in one write, so the moved column meets
    # the drain-all commit.
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
    "move": MOVES,
})


class MovingColumn(list):
    """A cursor column another writer commits to between a task's read
    and its commit: the first read of partition ``index`` while armed
    returns what is stored, then the stored cursor moves by ``delta``.
    Slices and iteration see what is stored."""

    def __init__(self, values, index, delta):
        super().__init__(values)
        self.index, self.delta, self.armed = index, delta, False

    def __getitem__(self, key):
        value = super().__getitem__(key)
        if self.armed and key.__class__ is int and key == self.index:
            self.armed = False
            self[key] = value + self.delta
        return value


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
        self.moving = None
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
        if scenario["move"] is not None:
            self._move(scenario["move"], shapes)

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

    def _move(self, move, shapes):
        position, slot, delta = move
        position %= len(shapes)
        index = slot % shapes[position]["partitions"]
        job_id, name = f"job-{position}", f"in-{position}"
        checkpoints = self.scribe.checkpoints
        size = shapes[position]["partitions"]
        column = checkpoints.column(job_id, name, size)
        self.moving = checkpoints.columns[job_id][name] = MovingColumn(
            column, index, delta
        )
        # The oracle passes every positive limit; the moved cursor is
        # read as often on both sides only if the fleet loop does too.
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


def tick(fleet, step, now, appended_mb):
    for category in fleet.sources:
        category.append(appended_mb)
    if fleet.moving is not None:
        fleet.moving.armed = True
    try:
        step(fleet.scribe, fleet.managers, now)
    except ScribeError as error:
        return str(error)
    finally:
        if fleet.moving is not None:
            fleet.moving.armed = False
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
        for dt, appended_mb in scenario["ticks"]:
            now += dt
            errors = [
                tick(fleet, step_managers, now, appended_mb),
                tick(oracle, oracle_step, now, appended_mb),
            ]
            assert errors[0] == errors[1]
            if errors[0] is not None:
                return True, any_contended
            assert fleet.observe() == oracle.observe()
    return False, any_contended


def test_fleet_loop_equals_the_per_manager_per_call_loop_bit_for_bit():
    hits = {"examples": 0, "raised": 0, "contended": 0, "moved": 0}

    @settings(max_examples=150, deadline=None, database=None)
    @given(scenario=fleets)
    def equivalent(scenario):
        raised, any_contended = run_fleet(scenario)
        hits["examples"] += 1
        hits["raised"] += raised
        hits["contended"] += any_contended
        hits["moved"] += scenario["move"] is not None

    equivalent()
    # Throttled containers, moved columns and regressions all occur.
    assert hits["contended"] >= 0.1 * hits["examples"], hits
    assert hits["moved"] >= 0.1 * hits["examples"], hits
    assert hits["raised"] >= 1, hits


# ----------------------------------------------------------------------
# The drain-all commit when the column moved since the read
# ----------------------------------------------------------------------
HEAD = 100.0


class MovesAtTheCompare(list):
    """Cursors another writer commits to between the step's read and its
    commit: the step's one slice read (the compare before a drain-all
    write) finds partition ``index`` at ``moved_to``."""

    def __init__(self, values, index, moved_to):
        super().__init__(values)
        self.index, self.moved_to = index, moved_to

    def __getitem__(self, key):
        if key.__class__ is slice and self.moved_to is not None:
            self[self.index], self.moved_to = self.moved_to, None
        return super().__getitem__(key)


def drained_task(cursors):
    """One running 2-thread task owning the four partitions of ``cat``,
    at head 100 each, committed at ``cursors``: its next step drains all
    four in one write (readables ascend, and fit the cap and budget)."""
    scribe = ScribeBus()
    category = scribe.create_category("cat", 4)
    category.append(4 * HEAD)
    for index, cursor in enumerate(cursors):
        scribe.checkpoints.commit("job", f"cat/{index}", cursor)
    config = task_config("job", "cat", rate=10.0, threads=2)
    return scribe, RunningTask(TaskSpec.from_job_config("job", 0, config), scribe)


class TestDrainAllCommitAfterAMove:
    def step(self, cursors, index, moved_to):
        scribe, task = drained_task(cursors)
        columns = scribe.checkpoints.columns["job"]
        columns["cat"] = MovesAtTheCompare(columns["cat"], index, moved_to)
        step_managers_alone(scribe, task)
        return list(columns["cat"]), task

    def test_an_unmoved_column_takes_the_one_write(self):
        offsets, task = self.step([90.0, 88.0, 85.0, 80.0], 1, None)
        assert offsets == [HEAD] * 4
        assert task.total_processed_mb == 10.0 + 12.0 + 15.0 + 20.0

    def test_a_column_moved_ahead_raises(self):
        """Another reader committed past this task's view of the head:
        committing the drained offsets would regress it."""
        with pytest.raises(ScribeError, match="cannot move backwards"):
            self.step([90.0, 88.0, 85.0, 80.0], 1, HEAD + 30.0)

    def test_a_column_moved_behind_commits_as_each_entry_would(self):
        """Every entry commits what the read pass computed, the moved one
        included."""
        offsets, task = self.step([90.0, 88.0, 85.0, 80.0], 1, 50.0)
        assert offsets == [HEAD] * 4
        assert task.total_processed_mb == 10.0 + 12.0 + 15.0 + 20.0

    @pytest.mark.parametrize("moved_to", [HEAD + 5e-7, 50.0])
    def test_a_moved_entry_with_nothing_to_read_keeps_what_is_stored(self, moved_to):
        """A caught-up partition commits nothing, so a move there stands
        either way, where a blind slice write would put back the cursor
        the read pass saw."""
        offsets, task = self.step([HEAD, 88.0, 85.0, 80.0], 0, moved_to)
        assert offsets == [moved_to, HEAD, HEAD, HEAD]
        assert task.total_processed_mb == 12.0 + 15.0 + 20.0


def step_managers_alone(scribe, task):
    """One fleet-loop tick of a lone task in an unlimited container."""
    container = TurbineContainer("c0", ResourceVector(cpu=0.0, memory_gb=64.0))
    manager = TaskManager(Engine(seed=0), container, None, None, scribe)
    manager._host(task, 0)
    step_managers(scribe, [manager], 10.0)
