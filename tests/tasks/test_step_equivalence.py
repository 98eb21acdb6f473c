"""``step_container`` against its per-call reference, bit for bit.

The flat step body inlines what used to be a tower of method calls per
task and per partition; the recorded exports pin every low bit of what it
computes. Two identical worlds are stepped side by side — one by
``repro.tasks.runtime.step_container``, one by
``repro.testing.reference.step_container_per_call`` (``Partition.readable``
/ ``available``, ``CheckpointStore.get`` / ``commit``, plan then apply) —
and every observable must be ``==``, never ``approx``, after every tick.

The flat body has two ways through a task's partitions — drain-all and
the sorted water-fill — and skips the OOM sum for a task that cannot
outgrow its reservation; the reference has neither shortcut. The unit
cases sit on both sides of every edge those decisions test, and the
generated suite must reach both branches.
"""

from math import inf, nan, nextafter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import JobSpec
from repro.scribe import ScribeBus
from repro.tasks import RunningTask, TaskSpec
from repro.tasks.runtime import step_container
from repro.testing import reference
from repro.testing.reference import step_container_per_call
from repro.types import TaskState

MAX_PARTITIONS = 21

#: Rates, intervals, limits and factors are deliberately not dyadic: a
#: reordered product must show up in the low bits.
TASK_FIELDS = {
    "partitions": st.integers(1, MAX_PARTITIONS),
    #: Skewed producers: partition ``i`` gets a ``(i + 1) ** -skew`` share
    #: (a negative skew fills the slice in ascending order).
    "skew": st.sampled_from([0.0, 0.7, 2.3, -0.7]),
    "offline": st.sets(st.integers(0, MAX_PARTITIONS - 1), max_size=4),
    #: Backlogs past any budget, and ones a tick can drain.
    "backlog_mb": st.floats(0.0, 5000.0) | st.floats(0.0, 2.0),
    "rate": st.sampled_from([0.0, 0.3, 1.7, 7.3]),
    "threads": st.integers(1, 3),
    #: 0 = stateless; 800 k keys restore in 1 s, 40 M keys in 50 s.
    "keys": st.sampled_from([0, 0, 800_000, 40_000_000]),
    #: 0 = no cgroup memory limit; 0.41 GB OOMs at ~2 MB/s.
    "memory_gb": st.sampled_from([0.0, 0.41, 2.0, 16.0]),
    #: ``(margin, ulps)``: a reservation ``ulps`` from the need at rate
    #: ``P · k · margin`` (``None``: ``memory_gb`` stands). At the
    #: step's own 1e-9 margin this is the edge of the flag that skips
    #: the OOM sum.
    "memory_edge": st.sampled_from([None, None] + [
        (margin, ulps) for margin in (1.0, 1.0 + 1e-9) for ulps in (-1, 0, 1)
    ]),
    "role": st.sampled_from(
        ["running", "running", "crashed", "passive", "promoted"]
    ),
    #: Both tasks of a two-task job hosted here (disjoint slices).
    "split": st.booleans(),
    #: Publish into the next task's input category: a pipeline whose
    #: second stage reads the first stage's output in the same tick.
    "feeds_next": st.booleans(),
}

SCENARIO_FIELDS = {
    "tasks": st.lists(st.fixed_dictionaries(TASK_FIELDS), min_size=1, max_size=6),
    #: No limit / tight / exactly the running threads / loose.
    "cpu": st.sampled_from([0.0, 0.35, 1.0, 2.0, 2.9, 64.0]),
    "slow_factor": st.sampled_from([1.0, 1.0, 0.9, 0.37]),
    #: ``(dt, MB appended to every source category before the tick)``.
    "ticks": st.lists(
        st.tuples(
            st.sampled_from([0.7, 9.9, 10.0, 61.3]),
            st.floats(0.0, 3000.0) | st.floats(0.0, 2.0),
        ),
        min_size=2, max_size=5,
    ),
    "drainable": st.just(False),
}

#: Running tasks on ascending slices (all online, no restore) whose
#: readable bytes on the first tick, ≤ 4 MB a category (2 MB of backlog
#: plus 2 MB appended, or fed by a stage that halves ≤ 4 MB), sit under
#: the smallest budget and cap that tick can give: 1.7 MB/s × 9.9 s × 0.9
#: (no CPU throttle, the slower of two factors). Every example of this
#: arm takes drain-all on its first tick, so the branch gets a known
#: share of the examples rather than a share left to chance.
DRAINABLE_TASK_FIELDS = {
    **TASK_FIELDS,
    "skew": st.just(-0.7),
    "offline": st.just(frozenset()),
    "backlog_mb": st.floats(0.01, 2.0),
    "rate": st.sampled_from([1.7, 7.3]),
    "keys": st.just(0),
    "role": st.sampled_from(["running", "promoted"]),
}
DRAINABLE_SCENARIO_FIELDS = {
    **SCENARIO_FIELDS,
    "tasks": st.lists(
        st.fixed_dictionaries(DRAINABLE_TASK_FIELDS), min_size=1, max_size=6
    ),
    #: No limit, or one above what up to 36 threads can want.
    "cpu": st.sampled_from([0.0, 64.0]),
    "slow_factor": st.sampled_from([1.0, 0.9]),
    "ticks": st.lists(
        st.tuples(st.sampled_from([9.9, 10.0, 61.3]), st.floats(0.0, 2.0)),
        min_size=2, max_size=5,
    ),
    "drainable": st.just(True),
}

scenarios = st.fixed_dictionaries(SCENARIO_FIELDS) | st.fixed_dictionaries(
    DRAINABLE_SCENARIO_FIELDS
)


def saturated_need_gb(rate_mb, keys=0, task_count=1, overhead=0.0):
    """Memory a task processing ``rate_mb`` MB/s needs, spelled out in
    the order the step sums it."""
    needed = 0.4 + overhead + rate_mb * 5.0 / 1000.0
    if keys:
        needed += (keys / task_count / 1e6) * 0.25
    return needed


def ulps_from(value, ulps):
    for _ in range(abs(ulps)):
        value = nextafter(value, inf if ulps > 0 else -inf)
    return value


def task_config(job_id, category, *, rate, threads=1, task_count=1, keys=0,
                memory_gb=0.0, overhead=0.0, output_category="",
                output_ratio=1.0):
    config = JobSpec(
        job_id=job_id, input_category=category, output_category=output_category,
        output_ratio=output_ratio, task_count=task_count,
        threads_per_task=threads, stateful=keys > 0, state_key_cardinality=keys,
    ).to_provisioner_config()
    config["resources"] = {"cpu": 1.0, "memory_gb": memory_gb}
    # Not through JobSpec, which refuses the rate 0 a config can hold.
    config["perf"] = {"rate_per_thread_mb": rate}
    if overhead:
        config["memory_overhead_gb"] = overhead
    return config


def observe(scribe, tasks, oom_killed):
    return {
        "offsets": [
            (job_id, list(scribe.checkpoints.snapshot(job_id).items()))
            for job_id in sorted(scribe.checkpoints.job_ids())
        ],
        "heads": [
            (name, [partition.head for partition in category.partitions])
            for name, category in scribe.categories.items()
        ],
        "tasks": [
            (task.spec.task_id, task.state, task.last_rate_mb,
             task.last_cpu_used, task.total_processed_mb,
             task.restore_remaining_mb, task.oom_count)
            for task in tasks
        ],
        "oom_killed": [task.spec.task_id for task in oom_killed],
    }


class World:
    """One scribe bus and one container's worth of tasks."""

    def __init__(self, scenario):
        self.scribe = ScribeBus()
        self.primaries, self.standbys, self.sources = [], [], []
        shapes = scenario["tasks"]
        for index, shape in enumerate(shapes):
            category = self.scribe.create_category(
                f"in-{index}", shape["partitions"]
            )
            category.set_weights([
                (slot + 1) ** -shape["skew"] for slot in range(shape["partitions"])
            ])
            category.append(shape["backlog_mb"])
            for offline in shape["offline"]:
                if offline < shape["partitions"]:
                    category.partitions[offline].online = False
            feeds_next = shape["feeds_next"] and index + 1 < len(shapes)
            if not (index and shapes[index - 1]["feeds_next"]):
                self.sources.append(category)
            task_count = 2 if shape["split"] else 1
            memory_gb = shape["memory_gb"]
            if shape["memory_edge"] is not None:
                margin, ulps = shape["memory_edge"]
                memory_gb = ulps_from(saturated_need_gb(
                    shape["rate"] * shape["threads"] * margin, shape["keys"],
                    task_count,
                ), ulps)
            config = task_config(
                f"job-{index}", category.name, rate=shape["rate"],
                threads=shape["threads"], task_count=task_count,
                keys=shape["keys"], memory_gb=memory_gb, output_ratio=0.5,
                output_category=f"in-{index + 1}" if feeds_next else f"out-{index}",
            )
            for task_index in range(task_count):
                spec = TaskSpec.from_job_config(f"job-{index}", task_index, config)
                role = shape["role"]
                standby = role in ("passive", "promoted")
                task = RunningTask(spec, self.scribe, passive=standby)
                if role == "promoted":
                    task.promote()
                elif role == "crashed":
                    task.state = TaskState.CRASHED
                (self.standbys if standby else self.primaries).append(task)

    def observe(self, oom_killed):
        return observe(self.scribe, self.primaries + self.standbys, oom_killed)


def drains_all(readables, budget, cap):
    """The flat step's drain-all test, on what the water-fill is given."""
    ascending = all(a <= b for a, b in zip(readables, readables[1:]))
    last = readables[-1] if readables else -inf
    total = 0.0
    for readable in readables:
        total += readable
    return (
        ascending and last <= cap and budget > 1e-2
        and total <= budget * (1.0 - 1e-9)
    )


def branch_of(entries, dt, throttle, restore_remaining_mb, max_rate_mb,
              rate_per_thread_mb):
    """Which branch the flat step takes for one task, read off the
    reference's ``plan_task_step`` arguments (``None``: restore only)."""
    throttle = min(1.0, max(0.0, throttle))
    if restore_remaining_mb > 1e-9:
        restored = min(restore_remaining_mb, 200.0 * dt)
        dt -= restored / 200.0
        if dt <= 1e-12:
            return None
    readables = [readable for readable, _offset in entries]
    if not any(readable > 0 for readable in readables):
        return "idle"
    return "drain-all" if drains_all(
        readables, max_rate_mb * dt * throttle, rate_per_thread_mb * dt * throttle
    ) else "water-fill"


def run_scenario(scenario):
    """Step both worlds tick by tick; returns the branches the per-call
    world's task-steps would take in the flat body."""
    flat, per_call = World(scenario), World(scenario)
    assert flat.observe(()) == per_call.observe(())
    branches = set()
    plan = reference.plan_task_step

    def classified(*args):
        branches.add(branch_of(*args))
        return plan(*args)

    for dt, appended_mb in scenario["ticks"]:
        seen = []
        for world, step in (
            (flat, step_container), (per_call, step_container_per_call)
        ):
            for category in world.sources:
                category.append(appended_mb)
            reference.plan_task_step = classified if world is per_call else plan
            try:
                oom_killed = step(
                    world.scribe, world.primaries, world.standbys, dt,
                    scenario["cpu"], scenario["slow_factor"],
                )
            finally:
                reference.plan_task_step = plan
            seen.append(world.observe(oom_killed))
            # What the Task Manager does with an OOM kill.
            for task in oom_killed:
                task.restart()
        assert seen[0] == seen[1]
    return branches


def test_flat_step_equals_the_per_call_form_bit_for_bit():
    hits = {"examples": 0, "drain-all": 0, "water-fill": 0}

    @settings(max_examples=150, deadline=None, database=None)
    @given(scenario=scenarios)
    def equivalent(scenario):
        branches = run_scenario(scenario)
        assert "drain-all" in branches or not scenario["drainable"], branches
        hits["examples"] += 1
        for branch in ("drain-all", "water-fill"):
            hits[branch] += branch in branches

    equivalent()
    # Both ways through a task's partitions are exercised, or the oracle
    # holds only one of them.
    assert hits["drain-all"] >= 0.1 * hits["examples"], hits
    assert hits["water-fill"] >= 0.1 * hits["examples"], hits


# ----------------------------------------------------------------------
# Unit cases at the edges
# ----------------------------------------------------------------------
RATE, DT = 1.3, 10.0


def twins(heads, *, cursors=None, offline=(), rate=RATE, threads=1, keys=0,
          memory_gb=0.0, overhead=0.0):
    """Two identical worlds of one running task owning every partition of
    its input, partition ``i`` at head ``heads[i]``. ``cursors`` maps a
    partition index to its committed offset (``None``: the job has no
    cursors yet, so it reads every partition from 0)."""
    pairs = []
    for _ in range(2):
        scribe = ScribeBus()
        category = scribe.create_category("in", len(heads))
        for partition, head in zip(category.partitions, heads):
            partition.head = head
        for index in offline:
            category.partitions[index].online = False
        for index, offset in (cursors or {}).items():
            scribe.checkpoints.commit(
                "job", category.partitions[index].partition_id, offset
            )
        config = task_config(
            "job", "in", rate=rate, threads=threads, keys=keys,
            memory_gb=memory_gb, overhead=overhead,
        )
        pairs.append((scribe, RunningTask(
            TaskSpec.from_job_config("job", 0, config), scribe
        )))
    return pairs


def step_twins(pairs, *, dt=DT, cpu=0.0, slow_factor=1.0, ticks=1):
    """Step the pair ``ticks`` times, ``==`` after every tick; returns the
    last observation."""
    for _ in range(ticks):
        seen = []
        for (scribe, task), step in zip(
            pairs, (step_container, step_container_per_call)
        ):
            oom_killed = step(scribe, [task], (), dt, cpu, slow_factor)
            seen.append(observe(scribe, [task], oom_killed))
        assert seen[0] == seen[1]
    return seen[0]


BUDGET_1 = RATE * 1 * DT * 1.0  # one thread: budget == cap
BUDGET_2 = RATE * 2 * DT * 1.0
CAP = RATE * DT * 1.0
#: The largest slice-order sum drain-all takes, for one and two threads.
LIMIT_1 = BUDGET_1 * (1.0 - 1e-9)
LIMIT_2 = BUDGET_2 * (1.0 - 1e-9)

EDGES = {
    # The readable sum against budget · (1 − 1e-9), and one ulp either side.
    "sum-at-limit": dict(heads=[LIMIT_1], branch="drain-all"),
    "sum-ulp-below": dict(heads=[nextafter(LIMIT_1, 0.0)], branch="drain-all"),
    "sum-ulp-above": dict(heads=[nextafter(LIMIT_1, inf)], branch="water-fill"),
    "pair-sum-at-limit": dict(
        heads=[LIMIT_2 / 2, LIMIT_2 / 2], threads=2, branch="drain-all"),
    "pair-sum-ulp-below": dict(
        heads=[nextafter(LIMIT_2, 0.0) / 2] * 2, threads=2, branch="drain-all"),
    "pair-sum-ulp-above": dict(
        heads=[nextafter(LIMIT_2, inf) / 2] * 2, threads=2, branch="water-fill"),
    # Inside the margin the water-fill's running budget can round below the
    # last readable: it drains that partition one ulp short.
    "sum-at-budget": dict(
        heads=[0.6941954610279728, 5.320087770564284, 6.985716768407743],
        branch="water-fill"),
    # The last (largest) readable against the per-partition cap.
    "last-at-cap": dict(heads=[1.0, CAP], threads=3, branch="drain-all"),
    "last-ulp-above-cap": dict(
        heads=[1.0, nextafter(CAP, inf)], threads=3, branch="water-fill"),
    "descending-pair": dict(heads=[5.0, 3.0], threads=2, branch="water-fill"),
    "equal-readables": dict(heads=[4.0, 4.0, 4.0], threads=2, branch="drain-all"),
    # A cursor up to 1e-6 past its head reads a negative backlog.
    "negative-first": dict(
        heads=[10.0, 10.0, 12.0], cursors={0: 10.0 + 5e-7}, threads=3,
        branch="drain-all"),
    "negative-middle": dict(
        heads=[10.0, 10.0, 12.0], cursors={1: 10.0 + 5e-7}, threads=3,
        branch="water-fill"),
    "offline-first": dict(heads=[3.0, 3.0, 3.0], offline=(0,), branch="drain-all"),
    "offline-last": dict(heads=[3.0, 3.0, 3.0], offline=(2,), branch="water-fill"),
    "no-cursors-yet": dict(heads=[1.0, 2.0], branch="drain-all"),
    "some-cursors": dict(
        heads=[6.0, 9.0, 9.5], cursors={1: 2.0, 2: 2.5}, threads=2,
        branch="drain-all"),
    "budget-below-floor": dict(
        heads=[1e-4, 2e-4], rate=1e-4, branch="water-fill"),
}


class TestBothBranchesAtTheirEdges:
    @pytest.mark.parametrize("name", sorted(EDGES))
    def test_edge_equals_the_per_call_form(self, name):
        case = dict(EDGES[name])
        branch = case.pop("branch")
        pairs = twins(**case)
        scribe, task = pairs[1]
        assert branch_of(
            reference.partition_entries(task), DT, 1.0, 0.0,
            task.spec.rate_per_thread_mb * task.spec.threads,
            task.spec.rate_per_thread_mb,
        ) == branch
        before = observe(scribe, [task], ())["offsets"]
        after = step_twins(pairs, ticks=3)
        assert after["offsets"] != before, "the case must commit something"

    def test_drain_all_commits_every_readable_in_slice_order(self):
        """The first cursors of a job are inserted in slice order — the
        order the water-fill visits ascending readables in."""
        after = step_twins(twins([1.0, 2.0, 2.0, 3.0], threads=2))
        assert after["offsets"] == [
            ("job", [("in/0", 1.0), ("in/1", 2.0), ("in/2", 2.0), ("in/3", 3.0)])
        ]

    def test_restore_shortened_step(self):
        """800 k keys restore in 1 s, so the task drains for 9 s of 10."""
        pairs = twins([2.0, 3.0], keys=800_000)
        assert pairs[0][1].restore_remaining_mb == 200.0
        after = step_twins(pairs, ticks=2)
        (_id, _state, rate_mb, *_rest) = after["tasks"][0]
        assert rate_mb == 0.0  # the second tick found nothing new

    @pytest.mark.parametrize("cpu, slow_factor", [(0.35, 1.0), (0.0, 0.37)])
    def test_throttled_steps(self, cpu, slow_factor):
        step_twins(
            twins([2.0, 2.5, 40.0], threads=2), cpu=cpu,
            slow_factor=slow_factor, ticks=3,
        )


# ----------------------------------------------------------------------
# The OOM flag
# ----------------------------------------------------------------------
def flag_of(**config):
    scribe = ScribeBus()
    scribe.create_category("in", 1)
    spec = TaskSpec.from_job_config("job", 0, task_config("job", "in", **config))
    return RunningTask(spec, scribe)._may_oom


class TestOomFlag:
    @pytest.mark.parametrize("rate", [0.0, -1.3, nan])
    def test_a_non_positive_or_nan_rate_always_checks(self, rate):
        assert flag_of(rate=rate, memory_gb=16.0)
        step_twins(twins([3.0, 4.0], rate=rate, memory_gb=0.3), ticks=2)

    @pytest.mark.parametrize("keys", [0, 40_000_000])
    @pytest.mark.parametrize("overhead", [0.0, 0.13])
    @pytest.mark.parametrize("ulps", [-1, 0, 1])
    def test_saturated_tasks_at_the_saturated_need(self, keys, overhead, ulps):
        """Reservations within the flag's margin keep the check; a
        saturated task OOMs exactly where the reference says."""
        reserved = ulps_from(
            saturated_need_gb(RATE * 2, keys, overhead=overhead), ulps
        )
        assert flag_of(rate=RATE, threads=2, keys=keys, overhead=overhead,
                       memory_gb=reserved)
        step_twins(
            twins([1e4, 1e4, 1e4], threads=2, keys=keys, overhead=overhead,
                  memory_gb=reserved),
            dt=61.3, ticks=3,
        )

    def test_no_reservation_never_ooms(self):
        after = step_twins(twins([1e4, 1e4], threads=2, memory_gb=0.0), ticks=2)
        assert after["oom_killed"] == [] and after["tasks"][0][-1] == 0

    @settings(max_examples=60, deadline=None)
    @given(
        threads=st.integers(1, 3),
        keys=st.sampled_from([0, 800_000, 40_000_000]),
        overhead=st.sampled_from([0.0, 0.13]),
        heads=st.lists(st.floats(0.0, 1e5), min_size=1, max_size=8),
        dt=st.sampled_from([0.7, 10.0, 61.3]),
        cpu=st.sampled_from([0.0, 0.35, 64.0]),
        slow_factor=st.sampled_from([1.0, 0.37]),
    )
    def test_a_task_whose_flag_is_false_never_ooms(
        self, threads, keys, overhead, heads, dt, cpu, slow_factor
    ):
        """Under any backlog, throttle or restore: the reference, which
        has no flag, never OOM-kills it either."""
        reserved = saturated_need_gb(
            RATE * threads * (1.0 + 1e-9), keys, overhead=overhead
        )
        pairs = twins(heads, threads=threads, keys=keys, overhead=overhead,
                      memory_gb=reserved)
        assert not pairs[0][1]._may_oom
        for _ in range(3):
            after = step_twins(pairs, dt=dt, cpu=cpu, slow_factor=slow_factor)
            assert after["oom_killed"] == []
