"""Conservation properties of the data plane.

Under arbitrary traffic and stepping sequences: bytes are never invented
(processed ≤ appended), checkpoints never pass partition heads, and each
byte is processed exactly once across restarts and task handoffs.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.jobs import JobSpec
from repro.scribe import ScribeBus
from repro.tasks import RunningTask, TaskSpec
from tests.tasks.helpers import step


def build(task_count=2, partitions=4, rate=2.0):
    scribe = ScribeBus()
    scribe.ensure_category("cat", partitions)
    config = JobSpec(
        job_id="job", input_category="cat", task_count=task_count,
        rate_per_thread_mb=rate,
    ).to_provisioner_config()
    tasks = [
        RunningTask(TaskSpec.from_job_config("job", index, config), scribe)
        for index in range(task_count)
    ]
    return tasks, scribe


# One action: (kind, amount) — append bytes or step for some seconds.
actions = st.lists(
    st.tuples(
        st.sampled_from(["append", "step", "restart"]),
        st.floats(min_value=0.1, max_value=100.0, allow_nan=False),
    ),
    min_size=1, max_size=40,
)


@settings(max_examples=50, deadline=None)
@given(sequence=actions)
def test_bytes_conserved_under_arbitrary_schedules(sequence):
    tasks, scribe = build()
    category = scribe.get_category("cat")
    appended = 0.0
    for kind, amount in sequence:
        if kind == "append":
            category.append(amount)
            appended += amount
        elif kind == "step":
            for task in tasks:
                step(task, amount)
        else:
            for task in tasks:
                task.restart()
        processed = sum(task.total_processed_mb for task in tasks)
        assert processed <= appended + 1e-6, "bytes must not be invented"
        for partition in category.partitions:
            offset = scribe.checkpoints.get("job", partition.partition_id)
            assert offset <= partition.head + 1e-6

    # Drain fully: afterwards processed == appended exactly once.
    for __ in range(200):
        if all(task.bytes_lagged_mb() < 1e-9 for task in tasks):
            break
        for task in tasks:
            step(task, 60.0)
    processed = sum(task.total_processed_mb for task in tasks)
    assert processed == pytest.approx(appended, rel=1e-6, abs=1e-6)


@settings(max_examples=25, deadline=None)
@given(
    splits=st.lists(
        st.floats(min_value=0.5, max_value=30.0), min_size=2, max_size=8
    )
)
def test_handoff_between_incarnations_is_exactly_once(splits):
    """A task stopped and re-created (shard movement) processes each byte
    exactly once, because progress lives in the checkpoint store."""
    tasks, scribe = build(task_count=1)
    category = scribe.get_category("cat")
    category.append(100.0)
    total = 0.0
    current = tasks[0]
    for dt in splits:
        total += step(current, dt)
        current.stop()
        current = RunningTask(current.spec, scribe)  # new incarnation
    while current.bytes_lagged_mb() > 1e-9:
        total += step(current, 60.0)
    assert total == pytest.approx(100.0)
