"""Tests for the single-reader-per-partition throughput ceiling."""

import pytest

from repro.jobs import JobSpec
from repro.scribe import ScribeBus
from repro.tasks import RunningTask, TaskSpec
from tests.tasks.helpers import step


def make_task(threads=2, partitions=1, rate=2.0):
    scribe = ScribeBus()
    scribe.ensure_category("cat", partitions)
    config = JobSpec(
        job_id="job", input_category="cat", threads_per_task=threads,
        rate_per_thread_mb=rate,
    ).to_provisioner_config()
    return RunningTask(TaskSpec.from_job_config("job", 0, config)), scribe


def make_task_full(threads=2, partitions=1, rate=2.0):
    scribe = ScribeBus()
    scribe.ensure_category("cat", partitions)
    config = JobSpec(
        job_id="job", input_category="cat", threads_per_task=threads,
        rate_per_thread_mb=rate,
    ).to_provisioner_config()
    spec = TaskSpec.from_job_config("job", 0, config)
    return RunningTask(spec, scribe), scribe


def test_single_partition_caps_at_one_thread():
    """A partition is a serial stream: two threads cannot both read it."""
    task, scribe = make_task_full(threads=2, partitions=1, rate=2.0)
    scribe.get_category("cat").append(1000.0)
    processed = step(task, 10.0)
    assert processed == pytest.approx(2.0 * 10.0), "one thread's worth only"


def test_two_partitions_unlock_both_threads():
    task, scribe = make_task_full(threads=2, partitions=2, rate=2.0)
    scribe.get_category("cat").append(1000.0)
    processed = step(task, 10.0)
    assert processed == pytest.approx(2.0 * 2 * 10.0)


def test_hot_partition_capped_but_cold_ones_served():
    """One hot partition plus cold ones: the hot one drains at P, the
    leftover budget serves the cold ones — no starvation either way."""
    task, scribe = make_task_full(threads=2, partitions=4, rate=2.0)
    category = scribe.get_category("cat")
    category.set_weights([0.91, 0.03, 0.03, 0.03])
    category.append(1000.0)  # hot: 910 MB, cold: 30 MB each
    processed = step(task, 10.0)  # budget 40, per-partition cap 20
    # Cold partitions fully drained (90 MB > budget? no: 3x30=90... budget
    # 40 total; water-fill: cold avails 30,30,30 then hot 910.
    # shares: 10,10,10 then leftover 10 to hot (cap 20) → 40 total.
    assert processed == pytest.approx(40.0)
    hot_offset = scribe.checkpoints.get("job", "cat/0")
    assert hot_offset <= 2.0 * 10.0 + 1e-6, "hot partition at most one thread"
