"""Tests for the simulated task runtime (the data plane)."""

import pytest

from repro.jobs import JobSpec
from repro.scribe import ScribeBus
from repro.tasks import RunningTask, TaskSpec
from repro.types import TaskState
from tests.tasks.helpers import step


def make_task(
    task_index=0, task_count=1, rate=2.0, threads=1, partitions=4,
    memory_gb=2.0, stateful=False, keys=0, scribe=None,
):
    scribe = scribe or ScribeBus()
    scribe.ensure_category("cat", partitions)
    spec = JobSpec(
        job_id="job", input_category="cat", task_count=task_count,
        threads_per_task=threads, rate_per_thread_mb=rate,
        stateful=stateful, state_key_cardinality=keys,
    ).to_provisioner_config()
    spec["resources"] = {"cpu": 1.0, "memory_gb": memory_gb}
    task_spec = TaskSpec.from_job_config("job", task_index, spec)
    return RunningTask(task_spec, scribe), scribe


class TestProcessing:
    def test_processes_available_bytes(self):
        task, scribe = make_task()
        scribe.get_category("cat").append(10.0)
        processed = step(task, 10.0)  # budget 2 MB/s * 10 s = 20 MB
        assert processed == pytest.approx(10.0)
        assert task.bytes_lagged_mb() == pytest.approx(0.0)

    def test_rate_capped_at_p_times_k(self):
        task, scribe = make_task(rate=2.0, threads=2)
        scribe.get_category("cat").append(1000.0)
        processed = step(task, 10.0)
        assert processed == pytest.approx(2.0 * 2 * 10.0)
        assert task.last_rate_mb == pytest.approx(4.0)

    def test_checkpoints_advance(self):
        task, scribe = make_task(partitions=2)
        scribe.get_category("cat").append(10.0)
        step(task, 10.0)
        for partition in scribe.get_category("cat").partitions:
            assert scribe.checkpoints.get("job", partition.partition_id) == (
                pytest.approx(5.0)
            )

    def test_restart_resumes_from_checkpoint(self):
        task, scribe = make_task()
        scribe.get_category("cat").append(10.0)
        step(task, 10.0)
        task.stop()
        # New incarnation, same scribe: picks up where the old one stopped.
        fresh = RunningTask(task.spec, scribe)
        scribe.get_category("cat").append(6.0)
        processed = step(fresh, 10.0)
        assert processed == pytest.approx(6.0)

    def test_only_owned_partitions_processed(self):
        scribe = ScribeBus()
        task0, __ = make_task(task_index=0, task_count=2, scribe=scribe)
        task1, __ = make_task(task_index=1, task_count=2, scribe=scribe)
        scribe.get_category("cat").append(8.0)  # 2.0 MB in each of 4 partitions
        step(task0, 10.0)
        assert task0.bytes_lagged_mb() == pytest.approx(0.0)
        assert task1.bytes_lagged_mb() == pytest.approx(4.0)

    def test_stopped_task_processes_nothing(self):
        task, scribe = make_task()
        scribe.get_category("cat").append(10.0)
        task.stop()
        assert step(task, 10.0) == 0.0
        assert task.state == TaskState.STOPPED

    def test_leftover_budget_flows_to_later_partitions(self):
        task, scribe = make_task(partitions=2, rate=10.0)
        category = scribe.get_category("cat")
        category.set_weights([0.1, 0.9])
        category.append(50.0)  # 5 MB and 45 MB
        processed = step(task, 10.0)  # budget 100 MB
        assert processed == pytest.approx(50.0)

    def test_cpu_usage_proportional_to_rate(self):
        task, scribe = make_task(rate=2.0, threads=2)
        scribe.get_category("cat").append(20.0)
        step(task, 10.0)  # processes 20 MB in 10 s = 2 MB/s = 1 busy thread
        assert task.last_cpu_used == pytest.approx(1.0)

    def test_backlog_reported(self):
        task, scribe = make_task(rate=0.5)
        scribe.get_category("cat").append(100.0)
        step(task, 10.0)  # can only do 5 MB
        assert task.bytes_lagged_mb() == pytest.approx(95.0)


class TestMemoryAndOom:
    def test_base_memory_floor(self):
        task, __ = make_task()
        assert task.memory_needed_gb() == pytest.approx(0.4)

    def test_memory_grows_with_rate(self):
        task, scribe = make_task(rate=100.0)
        scribe.get_category("cat").append(10000.0)
        step(task, 10.0)
        assert task.memory_needed_gb() > 0.4

    def test_stateful_memory_includes_state(self):
        task, __ = make_task(stateful=True, keys=4_000_000)
        assert task.memory_needed_gb() == pytest.approx(0.4 + 1.0)

    def test_state_memory_shrinks_with_parallelism(self):
        narrow, __ = make_task(stateful=True, keys=4_000_000, task_count=1)
        wide, __ = make_task(
            stateful=True, keys=4_000_000, task_count=4, task_index=0
        )
        assert wide.memory_needed_gb() < narrow.memory_needed_gb()

    def test_oom_crash_when_over_reservation(self):
        task, scribe = make_task(rate=1000.0, memory_gb=0.5)
        scribe.get_category("cat").append(100000.0)
        step(task, 10.0)  # buffers 1000 MB/s * 5 s = 5 GB >> 0.5 GB reserved
        assert task.state == TaskState.CRASHED
        assert task.oom_count == 1

    def test_no_oom_without_enforcement(self):
        """Zero reserved memory means no cgroup limit — soft monitoring only."""
        task, scribe = make_task(rate=1000.0, memory_gb=0.0)
        scribe.get_category("cat").append(100000.0)
        step(task, 10.0)
        assert task.state == TaskState.RUNNING

    def test_restart_after_oom(self):
        task, scribe = make_task(rate=1000.0, memory_gb=0.5)
        scribe.get_category("cat").append(100000.0)
        step(task, 10.0)
        task.restart()
        assert task.state == TaskState.RUNNING
