"""Tests for stateful task state restore (paper section V-B)."""

import pytest

from repro.jobs import JobSpec
from repro.scribe import ScribeBus
from repro.tasks import RunningTask, TaskSpec
from tests.tasks.helpers import step


def make_task(stateful=True, keys=40_000_000, task_count=1, rate=10.0):
    scribe = ScribeBus()
    scribe.ensure_category("cat", 4)
    config = JobSpec(
        job_id="job", input_category="cat", task_count=task_count,
        rate_per_thread_mb=rate, stateful=stateful,
        state_key_cardinality=keys if stateful else 0,
    ).to_provisioner_config()
    spec = TaskSpec.from_job_config("job", 0, config)
    return RunningTask(spec, scribe), scribe


def test_stateless_task_has_no_restore():
    task, __ = make_task(stateful=False)
    assert not task.restoring
    assert task.restore_remaining_mb == 0.0


def test_stateful_task_restores_before_processing():
    # 40M keys → 10 GB state → 50 s at 200 MB/s.
    task, scribe = make_task()
    assert task.restoring
    scribe.get_category("cat").append(100.0)
    processed = step(task, 10.0)
    assert processed == 0.0, "still restoring after 10 s"
    assert task.last_cpu_used == 1.0, "restore burns a core"
    step(task, 30.0)
    assert task.restoring  # 40/50 s done
    step(task, 20.0)  # restore finishes at 50 s; 10 s of processing
    assert not task.restoring
    assert task.total_processed_mb == pytest.approx(100.0)


def test_restore_time_proportional_to_state():
    small, __ = make_task(keys=8_000_000)    # 2 GB
    large, __ = make_task(keys=40_000_000)   # 10 GB
    assert large.restore_remaining_mb == pytest.approx(
        5 * small.restore_remaining_mb
    )


def test_parallelism_shrinks_per_task_restore():
    narrow, __ = make_task(task_count=1)
    wide, __ = make_task(task_count=4)
    assert wide.restore_remaining_mb == pytest.approx(
        narrow.restore_remaining_mb / 4
    )


def test_partial_step_splits_restore_and_processing():
    task, scribe = make_task(keys=800_000)  # 0.2 GB → 1 s restore
    scribe.get_category("cat").append(1000.0)
    processed = step(task, 10.0)  # 1 s restore + 9 s processing at 10 MB/s
    assert processed == pytest.approx(90.0)
    assert not task.restoring


def test_restart_restores_again():
    task, scribe = make_task(keys=800_000)
    scribe.get_category("cat").append(1000.0)
    step(task, 10.0)
    assert not task.restoring
    task.restart()
    assert task.restoring, "every restart pays the restore cost again"


def test_stateless_restart_is_free():
    task, scribe = make_task(stateful=False)
    scribe.get_category("cat").append(100.0)
    step(task, 10.0)
    task.restart()
    assert not task.restoring
