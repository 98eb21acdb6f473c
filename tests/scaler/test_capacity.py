"""Tests for the Capacity Manager.

The thresholds are module constants; these tests lower them (and the
period) so a two-host platform crosses them with a few small jobs. The
``capacity-squeeze`` drill runs the Manager at its defaults.
"""

import pytest

import repro.scaler.capacity
from repro import JobSpec, PlatformConfig, ResourceVector, Turbine
from repro.types import JobState, Priority


@pytest.fixture
def capacity_platform(monkeypatch):
    def build(num_hosts=2, seed=9, pressure=None, instability=None):
        module = repro.scaler.capacity
        monkeypatch.setattr(module, "INTERVAL", 120.0)
        if pressure is not None:
            monkeypatch.setattr(module, "PRESSURE_THRESHOLD", pressure)
        if instability is not None:
            monkeypatch.setattr(module, "INSTABILITY_THRESHOLD", instability)
        config = PlatformConfig(num_shards=16, containers_per_host=2)
        platform = Turbine.create(num_hosts=num_hosts, seed=seed, config=config)
        platform.attach_scaler()
        platform.attach_capacity_manager()
        platform.start()
        return platform
    return build


def provision_heavy(platform, job_id, priority, tasks=8, memory=5.0):
    platform.provision(
        JobSpec(
            job_id=job_id, input_category=f"cat-{job_id}", task_count=tasks,
            priority=priority,
            resources_per_task=ResourceVector(cpu=1.0, memory_gb=memory),
        )
    )


def test_utilization_reflects_reservations(capacity_platform):
    platform = capacity_platform()
    assert platform.capacity_manager.cluster_utilization() == 0.0
    provision_heavy(platform, "job", Priority.NORMAL)
    platform.run_for(minutes=3)
    assert platform.capacity_manager.cluster_utilization() > 0.0


def test_pressure_sets_priority_floor(capacity_platform):
    platform = capacity_platform(pressure=0.05)
    provision_heavy(platform, "job", Priority.NORMAL)
    platform.run_for(minutes=6)
    assert platform.capacity_manager.under_pressure
    assert platform.scaler.priority_floor == Priority.HIGH
    kinds = [event.kind for event in platform.capacity_manager.events]
    assert "pressure_on" in kinds


def test_pressure_releases_when_load_drops(capacity_platform):
    platform = capacity_platform(pressure=0.05)
    provision_heavy(platform, "job", Priority.NORMAL)
    platform.run_for(minutes=6)
    assert platform.capacity_manager.under_pressure
    # Remove the load entirely.
    platform.actuator.stop_tasks("job")
    platform.job_store.set_state("job", JobState.STOPPED)
    platform.run_for(minutes=6)
    assert not platform.capacity_manager.under_pressure
    assert platform.scaler.priority_floor == Priority.LOW


def test_instability_stops_lowest_priority_first(capacity_platform):
    platform = capacity_platform(pressure=0.03, instability=0.06)
    provision_heavy(platform, "low-job", Priority.LOW, tasks=8)
    provision_heavy(platform, "high-job", Priority.HIGH, tasks=2)
    platform.run_for(minutes=6)
    stopped = platform.capacity_manager.stopped_jobs
    assert "low-job" in stopped
    assert "high-job" not in stopped
    assert platform.job_store.state_of("low-job") == JobState.STOPPED
    assert platform.job_store.state_of("high-job") == JobState.RUNNING


def test_privileged_jobs_never_stopped(capacity_platform):
    platform = capacity_platform(pressure=0.01, instability=0.02)
    provision_heavy(platform, "critical", Priority.CRITICAL, tasks=8)
    platform.run_for(minutes=6)
    assert platform.job_store.state_of("critical") == JobState.RUNNING


def test_stopped_jobs_resume_when_capacity_returns(capacity_platform):
    # LOW alone reserves 0.083 of the cluster (8 of 96 cores), HIGH 0.042:
    # the LOW job fits under the 0.09 pressure line only once HIGH is gone.
    platform = capacity_platform(pressure=0.09, instability=0.10)
    provision_heavy(platform, "low-job", Priority.LOW, tasks=8)
    provision_heavy(platform, "high-job", Priority.HIGH, tasks=4, memory=3.0)
    platform.run_for(minutes=6)
    assert "low-job" in platform.capacity_manager.stopped_jobs
    # The pressure source goes away entirely.
    platform.actuator.stop_tasks("high-job")
    platform.job_store.set_state("high-job", JobState.STOPPED)
    platform.run_for(minutes=10)
    assert platform.job_store.state_of("low-job") == JobState.RUNNING
    platform.run_for(minutes=4)
    assert platform.tasks_of_job("low-job"), "tasks re-created after resume"


def test_lend_hosts_removes_from_cluster(capacity_platform):
    platform = capacity_platform(num_hosts=4)
    lent = platform.capacity_manager.lend_hosts(2)
    assert len(lent) == 2
    assert len(platform.cluster.live_hosts()) == 2
