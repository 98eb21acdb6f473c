"""The two drills that reach a paper mechanism no plane switch covers.

* ``container-partition`` — section IV-C: a Task Manager cut off from the
  Shard Manager reboots itself at the 40 s connection timeout, before the
  60 s fail-over starts its shards elsewhere, so no task id ever runs in
  two containers. Run past the fail-over (the constant patched to 90 s),
  the same partition must show the duplicate the timeout prevents.
* ``capacity-squeeze`` — section V-F: the Capacity Manager stops the
  lowest-priority job when a host loss pushes utilization past 0.95,
  never a privileged one, and resumes it once the host is back.
"""

import dataclasses

import pytest

import repro.tasks.manager as manager_module
from repro.chaos import WARMUP, build_platform, get_scenario, run_scenario
from repro.chaos.scenarios import Fault, _squeeze_patch
from repro.types import Priority


def unsafe_samples():
    """Run the ``container-partition`` drill on the seed-7 chaos platform
    and count the 1 s samples with a duplicate task id (or an orphan)."""
    scenario = get_scenario("container-partition")
    platform = build_platform(7)
    platform.run_for(seconds=WARMUP)
    platform.chaos.schedule(scenario)
    fault = scenario.faults[0]
    unsafe = 0
    for __ in range(int(fault.at + fault.duration + 30)):
        platform.run_for(seconds=1.0)
        if not platform.chaos.check().safety_ok:
            unsafe += 1
    return platform, unsafe


def test_partition_reboots_before_failover_with_no_duplicate():
    platform, unsafe = unsafe_samples()
    assert unsafe == 0
    partitioned = [
        manager for manager in platform.task_managers.values()
        if manager.container.host_id == "host-0"
    ]
    assert partitioned and all(m.reboot_count >= 1 for m in partitioned)
    assert {
        event.container_id for event in platform.shard_manager.failover_events
    } == {m.container_id for m in partitioned}


def test_partition_past_failover_shows_a_duplicate(monkeypatch):
    """The control for the test above: with the timeout past the 60 s
    fail-over, the partitioned tasks keep running while their shards
    start elsewhere. The Shard Manager cannot reboot what it cannot
    reach, so nothing else stops them."""
    monkeypatch.setattr(manager_module, "CONNECTION_TIMEOUT", 90.0)
    __, unsafe = unsafe_samples()
    assert unsafe > 0


def test_partition_timeline_shows_reboots_then_failovers():
    result = run_scenario("container-partition", seed=7)
    rows = [line.split() for line in result.timeline_text.splitlines()[2:]]
    reboots = [float(row[0]) for row in rows if row[1:3] == ["task-manager", "reboot"]]
    failovers = [
        float(row[0]) for row in rows if row[1:3] == ["shard-manager", "failover"]
    ]
    assert reboots and failovers
    assert max(reboots) < min(failovers)


@pytest.fixture(scope="module")
def squeeze():
    return run_scenario("capacity-squeeze", seed=7)


def capacity_actions(result):
    """``(time, kind, job)`` of every stop and resume, and when the host
    came back."""
    rows = [
        line.split(None, 3) for line in result.timeline_text.splitlines()[2:]
    ]
    capacity = [
        (float(row[0]), row[2], row[3].split()[0])
        for row in rows if row[1] == "capacity-manager"
        and row[2] in ("job_stopped", "job_resumed")
    ]
    recovered = next(
        float(row[0]) for row in rows
        if row[1:3] == ["cluster", "host-recover"]
    )
    return capacity, recovered


def test_squeeze_stops_the_lowest_priority_job_and_resumes_it(squeeze):
    capacity, recovered = capacity_actions(squeeze)
    # Only the LOW job is stopped (the HIGH and NORMAL ones fit once it
    # is gone), and it comes back only after the host does.
    assert [(kind, job) for __, kind, job in capacity] == [
        ("job_stopped", "chaos/job-2"), ("job_resumed", "chaos/job-2"),
    ]
    stopped_at, resumed_at = capacity[0][0], capacity[1][0]
    assert stopped_at < recovered < resumed_at
    assert squeeze.converged


def test_a_shed_job_is_not_resumed_into_the_squeeze_that_shed_it():
    """Three jobs of 16 tasks x 16 GB fill two thirds of the cluster
    without the LOW one; a resume that counted only the others' load
    (0.67 < 0.80) brought it back at every round the host was down, and
    each time the next round shed it again. Counting its own 256 GB, it
    stays stopped until host-1 is back, then resumes once."""
    faults = tuple(
        Fault("oncall-patch", at=30.0, target=f"chaos/job-{index}",
              payload=_squeeze_patch(priority, 16.0), measure=False)
        for index, priority in enumerate(
            (Priority.HIGH, Priority.NORMAL, Priority.LOW))
    ) + (Fault("host-failure", at=320.0, duration=1500.0, target="host-1"),)
    scenario = dataclasses.replace(
        get_scenario("capacity-squeeze"), faults=faults, horizon=3000.0
    )
    capacity, recovered = capacity_actions(run_scenario(scenario, seed=7))
    assert [(kind, job) for __, kind, job in capacity] == [
        ("job_stopped", "chaos/job-2"), ("job_resumed", "chaos/job-2"),
    ]
    assert capacity[0][0] < recovered < capacity[1][0]


def test_squeeze_without_the_capacity_manager_stops_nothing():
    control = run_scenario("capacity-squeeze", seed=7, control=True)
    assert "capacity-manager" not in control.timeline_text
    assert control.converged
