"""Unit tests for execution-plan construction (jobs/plan.py)."""

import pytest

from repro.jobs.configs import config_diff
from repro.jobs.plan import TaskActuator, build_plan


class SpyActuator(TaskActuator):
    def __init__(self):
        self.calls = []

    def apply_settings(self, job_id, config):
        self.calls.append(("apply_settings", job_id, config))

    def stop_tasks(self, job_id):
        self.calls.append(("stop_tasks", job_id))

    def redistribute_checkpoints(self, job_id, old, new):
        self.calls.append(("redistribute", job_id, old, new))

    def start_tasks(self, job_id, count, config):
        self.calls.append(("start_tasks", job_id, count, config))


def plan_between(running, expected):
    return build_plan("job", running, expected, config_diff(running, expected))


def test_no_diff_empty_plan():
    config = {"task_count": 4, "package": {"version": "1"}}
    plan = plan_between(config, dict(config))
    assert plan.actions == []
    assert not plan.complex


def test_settings_change_builds_simple_plan():
    running = {"task_count": 4, "package": {"version": "1"}}
    expected = {"task_count": 4, "package": {"version": "2"}}
    plan = plan_between(running, expected)
    assert not plan.complex
    assert [action.name for action in plan.actions] == ["apply_settings"]
    actuator = SpyActuator()
    plan.execute(actuator)
    assert actuator.calls == [("apply_settings", "job", expected)]


def test_parallelism_change_builds_three_phase_plan():
    running = {"task_count": 4}
    expected = {"task_count": 8}
    plan = plan_between(running, expected)
    assert plan.complex
    assert [action.name for action in plan.actions] == [
        "stop_old_tasks", "redistribute_checkpoints", "start_new_tasks",
    ]
    actuator = SpyActuator()
    plan.execute(actuator)
    assert actuator.calls[0] == ("stop_tasks", "job")
    assert actuator.calls[1] == ("redistribute", "job", 4, 8)
    assert actuator.calls[2][0:3] == ("start_tasks", "job", 8)


def test_initial_provision_counts_from_zero():
    plan = plan_between({}, {"task_count": 4})
    actuator = SpyActuator()
    plan.execute(actuator)
    assert ("redistribute", "job", 0, 4) in actuator.calls


def test_target_config_is_expected():
    expected = {"task_count": 8, "extra": 1}
    plan = plan_between({"task_count": 4}, expected)
    assert plan.target_config == expected


def test_plan_stops_at_first_failure():
    running = {"task_count": 4}
    expected = {"task_count": 8}
    plan = plan_between(running, expected)

    class FailingActuator(SpyActuator):
        def redistribute_checkpoints(self, job_id, old, new):
            raise RuntimeError("boom")

    actuator = FailingActuator()
    with pytest.raises(RuntimeError):
        plan.execute(actuator)
    assert actuator.calls == [("stop_tasks", "job")], (
        "no action after the failing one may run"
    )
