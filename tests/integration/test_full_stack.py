"""Full-stack scenarios: all three layers plus workloads, over hours."""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.scaler import AutoScalerConfig
from repro.workloads import DiurnalPattern, TrafficDriver


def full_platform(num_hosts=4, seed=21, downscale_after=1800.0):
    config = PlatformConfig(num_shards=64, containers_per_host=2)
    platform = Turbine.create(num_hosts=num_hosts, seed=seed, config=config)
    platform.attach_scaler(AutoScalerConfig(downscale_after=downscale_after))
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe)
    driver.start()
    return platform, driver


def test_multi_job_fleet_stays_within_slo():
    platform, driver = full_platform()
    rates = {"a": 2.0, "b": 4.0, "c": 1.0}
    for name, rate in rates.items():
        platform.provision(
            JobSpec(job_id=f"job-{name}", input_category=f"cat-{name}",
                    task_count=4, rate_per_thread_mb=2.0),
        )
        driver.add_source(f"cat-{name}", lambda t, r=rate: r)
    platform.run_for(hours=2)
    for name in rates:
        lag = platform.metrics.latest(f"job-{name}", "time_lagged")
        assert lag is not None and lag < 90.0, f"job-{name} must be in SLO"


def test_diurnal_traffic_handled_without_slo_violation():
    platform, driver = full_platform()
    pattern = DiurnalPattern(4.0, amplitude=0.3, daily_variation=0.01,
                             rng=platform.engine.rng.fork("wl"))
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=4,
                rate_per_thread_mb=2.0),
    )
    driver.add_source("cat", pattern)
    platform.run_for(hours=6)
    lag_series = platform.metrics.series("job", "time_lagged")
    violations = [v for __, v in lag_series.all_points() if v > 90.0]
    assert not violations


def test_survives_rolling_host_failures_with_traffic():
    platform, driver = full_platform(num_hosts=5)
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=8,
                rate_per_thread_mb=4.0),
    )
    driver.add_source("cat", lambda t: 6.0)
    platform.run_for(minutes=10)
    from repro.cluster import FailurePlan

    platform.failures.schedule(FailurePlan("host-0", fail_at=platform.now + 300.0))
    platform.failures.schedule(FailurePlan("host-1", fail_at=platform.now + 1200.0))
    platform.run_for(hours=1)
    # The scaler may legitimately resize the job along the way; what must
    # hold is that the *expected* parallelism is fully scheduled...
    expected = platform.job_service.expected_config("job")["task_count"]
    assert len(platform.tasks_of_job("job")) == expected
    assert expected >= 2, "6 MB/s at P=4 needs at least 2 tasks"
    # ...and lag recovered: failover pauses processing, then catches up.
    assert platform.metrics.latest("job", "time_lagged") < 90.0


def test_hot_added_host_participates():
    platform, driver = full_platform(num_hosts=2)
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=8,
                rate_per_thread_mb=2.0),
    )
    driver.add_source("cat", lambda t: 4.0)
    platform.run_for(minutes=10)
    platform.add_host("host-new")
    platform.run_for(minutes=40)  # past a rebalance round
    new_managers = [
        manager for manager in platform.task_managers.values()
        if manager.container.host_id == "host-new"
    ]
    assert new_managers
    assert any(manager.assigned_shards for manager in new_managers)


def test_engine_upgrade_propagates_cluster_wide():
    """A global package release reaches every task within ~5 minutes
    (paper section I: tens of thousands of tasks within 5 minutes)."""
    from repro.jobs import ConfigLevel

    platform, driver = full_platform()
    for index in range(10):
        platform.provision(
            JobSpec(job_id=f"job-{index}", input_category=f"cat-{index}",
                    task_count=4),
        )
    platform.run_for(minutes=5)
    start = platform.now
    for index in range(10):
        platform.job_service.patch(
            f"job-{index}", ConfigLevel.PROVISIONER,
            {"package": {"name": "stream_engine", "version": "9.9"}},
        )
    platform.run_for(minutes=5)
    versions = {
        task.spec.package_version
        for manager in platform.task_managers.values()
        for task in manager.tasks.values()
    }
    assert versions == {"9.9"}, "every running task on the new version"
    assert platform.now - start <= 300.0


def test_state_syncer_down_tasks_keep_processing():
    platform, driver = full_platform()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=4,
                rate_per_thread_mb=4.0),
    )
    driver.add_source("cat", lambda t: 4.0)
    platform.run_for(minutes=10)
    platform.syncer.stop()  # Job Management control loop dies
    platform.run_for(hours=1)
    assert platform.metrics.latest("job", "time_lagged") < 90.0, (
        "data plane unaffected by a dead State Syncer"
    )
