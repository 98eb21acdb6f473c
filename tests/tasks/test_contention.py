"""Tests for container-level CPU contention (cgroup sharing)."""

import pytest

from repro import JobSpec, PlatformConfig, ResourceVector, Turbine
from repro.scribe import ScribeBus
from repro.tasks import RunningTask, TaskSpec
from tests.tasks.helpers import desired_cores, step


def make_task(rate=2.0, scribe=None, job_id="job"):
    scribe = scribe or ScribeBus()
    scribe.ensure_category("cat", 4)
    config = JobSpec(
        job_id=job_id, input_category="cat", rate_per_thread_mb=rate,
    ).to_provisioner_config()
    return RunningTask(TaskSpec.from_job_config(job_id, 0, config)), scribe


def make_task_full(rate=2.0, scribe=None, job_id="job"):
    scribe = scribe or ScribeBus()
    scribe.ensure_category("cat", 4)
    config = JobSpec(
        job_id=job_id, input_category="cat", rate_per_thread_mb=rate,
    ).to_provisioner_config()
    spec = TaskSpec.from_job_config(job_id, 0, config)
    return RunningTask(spec, scribe), scribe


class TestDesiredCores:
    def test_idle_task_wants_nothing(self):
        task, __ = make_task_full()
        assert desired_cores(task, 10.0) == 0.0

    def test_saturated_task_wants_a_thread(self):
        task, scribe = make_task_full(rate=2.0)
        scribe.get_category("cat").append(1000.0)
        assert desired_cores(task, 10.0) == pytest.approx(1.0)

    def test_light_backlog_wants_fraction(self):
        task, scribe = make_task_full(rate=2.0)
        scribe.get_category("cat").append(4.0)  # 0.4 MB/s over 10 s
        assert desired_cores(task, 10.0) == pytest.approx(0.2)

    def test_stopped_task_wants_nothing(self):
        task, scribe = make_task_full()
        scribe.get_category("cat").append(100.0)
        task.stop()
        assert desired_cores(task, 10.0) == 0.0


class TestThrottle:
    def test_throttle_caps_processing(self):
        task, scribe = make_task_full(rate=2.0)
        scribe.get_category("cat").append(1000.0)
        processed = step(task, 10.0, throttle=0.5)
        assert processed == pytest.approx(10.0)  # half of 2 MB/s * 10 s

    def test_full_throttle_is_default(self):
        task, scribe = make_task_full(rate=2.0)
        scribe.get_category("cat").append(1000.0)
        assert step(task, 10.0) == pytest.approx(20.0)


class TestContainerContention:
    def _overcommitted_platform(self):
        """A tiny container (2 CPU) hosting tasks that demand ~4 cores."""
        platform = Turbine.create(
            num_hosts=1, seed=77,
            config=PlatformConfig(
                num_shards=4, containers_per_host=1,
                container_capacity=ResourceVector(cpu=2.0, memory_gb=8.0),
            ),
        )
        platform.start()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=4,
                    rate_per_thread_mb=2.0),
            partitions=4,
        )
        platform.run_for(minutes=3)
        assert len(platform.tasks_of_job("job")) == 4
        return platform

    def test_overcommitted_container_slows_tasks(self):
        platform = self._overcommitted_platform()
        # Demand 8 MB/s of processing (4 saturated threads) on 2 cores.
        for __ in range(10):
            platform.scribe.get_category("cat").append(8.0 * 60.0)
            platform.run_for(minutes=1)
        lag = platform.job_lag_mb("job")
        # Only ~2 cores' worth (4 MB/s) processes: backlog grows by
        # ~4 MB/s * 600 s = 2400 MB.
        assert lag == pytest.approx(2400.0, rel=0.2)

    def test_within_capacity_no_throttle(self):
        platform = self._overcommitted_platform()
        # 2 MB/s total demand fits easily into 2 cores.
        for __ in range(10):
            platform.scribe.get_category("cat").append(2.0 * 60.0)
            platform.run_for(minutes=1)
        assert platform.job_lag_mb("job") < 150.0
