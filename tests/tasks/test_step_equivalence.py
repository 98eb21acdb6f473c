"""``step_container`` against its per-call reference, bit for bit.

The flat step body inlines what used to be a tower of method calls per
task and per partition; the recorded exports pin every low bit of what it
computes. Two identical worlds are stepped side by side — one by
``repro.tasks.runtime.step_container``, one by
``repro.testing.reference.step_container_per_call`` (``Partition.readable``
/ ``available``, ``CheckpointStore.get`` / ``commit``, plan then apply) —
and every observable must be ``==``, never ``approx``, after every tick.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import JobSpec
from repro.scribe import ScribeBus
from repro.tasks import RunningTask, TaskSpec
from repro.tasks.runtime import step_container
from repro.testing.reference import step_container_per_call
from repro.types import TaskState

MAX_PARTITIONS = 21

#: Rates, intervals, limits and factors are deliberately not dyadic: a
#: reordered product must show up in the low bits.
task_shapes = st.fixed_dictionaries({
    "partitions": st.integers(1, MAX_PARTITIONS),
    #: Skewed producers: partition ``i`` gets a ``(i + 1) ** -skew`` share.
    "skew": st.sampled_from([0.0, 0.7, 2.3]),
    "offline": st.sets(st.integers(0, MAX_PARTITIONS - 1), max_size=4),
    "backlog_mb": st.floats(0.0, 5000.0),
    "rate": st.sampled_from([0.0, 0.3, 1.7, 7.3]),
    "threads": st.integers(1, 3),
    #: 0 = stateless; 800 k keys restore in 1 s, 40 M keys in 50 s.
    "keys": st.sampled_from([0, 0, 800_000, 40_000_000]),
    #: 0 = no cgroup memory limit; 0.41 GB OOMs at ~2 MB/s.
    "memory_gb": st.sampled_from([0.0, 0.41, 2.0, 16.0]),
    "role": st.sampled_from(
        ["running", "running", "crashed", "passive", "promoted"]
    ),
    #: Both tasks of a two-task job hosted here (disjoint slices).
    "split": st.booleans(),
    #: Publish into the next task's input category: a pipeline whose
    #: second stage reads the first stage's output in the same tick.
    "feeds_next": st.booleans(),
})

scenarios = st.fixed_dictionaries({
    "tasks": st.lists(task_shapes, min_size=1, max_size=6),
    #: No limit / tight / exactly the running threads / loose.
    "cpu": st.sampled_from([0.0, 0.35, 1.0, 2.0, 2.9, 64.0]),
    "slow_factor": st.sampled_from([1.0, 1.0, 0.9, 0.37]),
    #: ``(dt, MB appended to every source category before the tick)``.
    "ticks": st.lists(
        st.tuples(
            st.sampled_from([0.7, 9.9, 10.0, 61.3]), st.floats(0.0, 3000.0)
        ),
        min_size=2, max_size=5,
    ),
})


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
            config = JobSpec(
                job_id=f"job-{index}", input_category=category.name,
                output_category=f"in-{index + 1}" if feeds_next else f"out-{index}",
                output_ratio=0.5, task_count=task_count,
                threads_per_task=shape["threads"],
                stateful=shape["keys"] > 0, state_key_cardinality=shape["keys"],
            ).to_provisioner_config()
            config["resources"] = {"cpu": 1.0, "memory_gb": shape["memory_gb"]}
            # Not through JobSpec, which refuses the rate 0 a config can hold.
            config["perf"] = {"rate_per_thread_mb": shape["rate"]}
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
        tasks = self.primaries + self.standbys
        return {
            "offsets": [
                (job_id, list(offsets.items()))
                for job_id, offsets in self.scribe.checkpoints.offsets.items()
            ],
            "heads": [
                (name, [partition.head for partition in category.partitions])
                for name, category in self.scribe.categories.items()
            ],
            "tasks": [
                (task.spec.task_id, task.state, task.last_rate_mb,
                 task.last_cpu_used, task.total_processed_mb,
                 task.restore_remaining_mb, task.oom_count)
                for task in tasks
            ],
            "oom_killed": [task.spec.task_id for task in oom_killed],
        }


@settings(max_examples=150, deadline=None)
@given(scenario=scenarios)
def test_flat_step_equals_the_per_call_form_bit_for_bit(scenario):
    flat, per_call = World(scenario), World(scenario)
    assert flat.observe(()) == per_call.observe(())
    for dt, appended_mb in scenario["ticks"]:
        seen = []
        for world, step in (
            (flat, step_container), (per_call, step_container_per_call)
        ):
            for category in world.sources:
                category.append(appended_mb)
            oom_killed = step(
                world.scribe, world.primaries, world.standbys, dt,
                scenario["cpu"], scenario["slow_factor"],
            )
            seen.append(world.observe(oom_killed))
            # What the Task Manager does with an OOM kill.
            for task in oom_killed:
                task.restart()
        assert seen[0] == seen[1]
