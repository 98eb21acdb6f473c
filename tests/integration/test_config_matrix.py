"""Smoke matrix: the platform works across extreme configurations."""

import pytest

import repro.jobs.syncer
import repro.tasks.manager
import repro.tasks.service
from repro import JobSpec, PlatformConfig, ResourceVector, Turbine

#: The control-loop periods are module constants (the paper's production
#: values); the two loop-speed rows below patch them as
#: ``(SYNC_INTERVAL, REFRESH_INTERVAL, CACHE_TTL)``.
FAST_LOOPS = (5.0, 10.0, 15.0)
SLOW_LOOPS = (120.0, 300.0, 600.0)


@pytest.mark.parametrize(
    "description,config,num_hosts",
    [
        ("single host", PlatformConfig(num_shards=8, containers_per_host=1), 1),
        ("one shard per task", PlatformConfig(num_shards=512,
                                              containers_per_host=2), 2),
        ("very few shards", PlatformConfig(num_shards=2,
                                           containers_per_host=2), 2),
        ("many containers per host",
         PlatformConfig(num_shards=64, containers_per_host=4,
                        container_capacity=ResourceVector(
                            cpu=4.0, memory_gb=16.0)), 2),
        ("fast control loops",
         PlatformConfig(num_shards=16, containers_per_host=2), 2),
        ("slow control loops",
         PlatformConfig(num_shards=16, containers_per_host=2), 2),
    ],
)
def test_platform_schedules_under_config(
    description, config, num_hosts, monkeypatch
):
    loops = {"fast control loops": FAST_LOOPS,
             "slow control loops": SLOW_LOOPS}.get(description)
    if loops is not None:
        sync, refresh, ttl = loops
        monkeypatch.setattr(repro.jobs.syncer, "SYNC_INTERVAL", sync)
        monkeypatch.setattr(repro.tasks.manager, "REFRESH_INTERVAL", refresh)
        monkeypatch.setattr(repro.tasks.service, "CACHE_TTL", ttl)
    platform = Turbine.create(num_hosts=num_hosts, seed=13, config=config)
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=4,
                rate_per_thread_mb=4.0),
        partitions=8,
    )
    # Allow the slowest configuration's full propagation chain.
    platform.run_for(minutes=20)
    assert len(platform.tasks_of_job("job")) == 4, description
    platform.scribe.get_category("cat").append(60.0)
    platform.run_for(minutes=10)
    assert platform.job_lag_mb("job") < 1.0, description


def test_one_container_total():
    """Degenerate deployment: everything on one container."""
    platform = Turbine.create(
        num_hosts=1, seed=13,
        config=PlatformConfig(num_shards=4, containers_per_host=1),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=8)
    )
    platform.run_for(minutes=5)
    assert len(platform.tasks_of_job("job")) == 8
    only_manager = next(iter(platform.task_managers.values()))
    assert len(only_manager.assigned_shards) == 4
