"""Property-style invariant tests under randomized fault injection.

The two Task Management invariants from section IV ("Schedule tasks without
duplication ... There should also be no task loss") are checked continuously
while hosts crash and recover at random.
"""

import pytest

from repro import JobSpec, PlatformConfig, Turbine


def chaos_platform(seed):
    config = PlatformConfig(num_shards=32, containers_per_host=2)
    platform = Turbine.create(num_hosts=4, seed=seed, config=config)
    platform.start()
    for index in range(4):
        platform.provision(
            JobSpec(job_id=f"job-{index}", input_category=f"cat-{index}",
                    task_count=4),
        )
    platform.run_for(minutes=5)
    return platform


def fail_hosts_at_random(
    platform, mean_time_between_failures, mean_time_to_recover,
    label="random-failures",
):
    """Fail a random live host after each exponential gap; each failed host
    recovers after an exponential downtime. Draws come from a forked RNG
    stream, so the rest of the platform sees the same random numbers."""
    engine, injector = platform.engine, platform.failures
    rng = engine.rng.fork(label)

    def next_failure():
        live = platform.cluster.live_hosts()
        if live:
            host_id = rng.choice(live).host_id
            injector.fail_now(host_id, label)
            downtime = rng.expovariate(1.0 / mean_time_to_recover)
            engine.call_in(
                downtime, lambda: injector.recover_now(host_id, label)
            )
        engine.call_in(
            rng.expovariate(1.0 / mean_time_between_failures), next_failure
        )

    engine.call_in(
        rng.expovariate(1.0 / mean_time_between_failures), next_failure
    )


def assert_no_duplicates(platform):
    tasks = platform.running_tasks()
    assert len(tasks) == len(set(tasks)), f"duplicate tasks: {tasks}"


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_no_duplicate_tasks_under_random_failures(seed):
    platform = chaos_platform(seed)
    fail_hosts_at_random(platform, mean_time_between_failures=600.0,
                         mean_time_to_recover=300.0)
    for __ in range(24):  # check every 5 minutes over 2 hours
        platform.run_for(minutes=5)
        assert_no_duplicates(platform)
        # Re-populate recovered hosts the way the platform normally would.
        for host in platform.cluster.live_hosts():
            if not host.containers:
                for __ in range(platform.config.containers_per_host):
                    container = platform.cluster.allocate_container(
                        host_id=host.host_id
                    )
                    platform._spawn_manager(container)


@pytest.mark.parametrize("seed", [11, 12])
def test_all_tasks_recovered_after_chaos_ends(seed):
    platform = chaos_platform(seed)
    # A burst of failures, then calm.
    from repro.cluster import FailurePlan

    platform.failures.schedule(
        FailurePlan("host-0", platform.now + 60.0, platform.now + 400.0))
    platform.failures.schedule(
        FailurePlan("host-2", platform.now + 120.0, platform.now + 500.0))
    platform.run_for(minutes=9)
    for host_id in ("host-0", "host-2"):
        host = platform.cluster.hosts[host_id]
        if host.alive and not host.containers:
            for __ in range(platform.config.containers_per_host):
                container = platform.cluster.allocate_container(host_id=host_id)
                platform._spawn_manager(container)
    platform.run_for(minutes=30)
    # No task loss: every provisioned task is running exactly once.
    for index in range(4):
        assert len(platform.tasks_of_job(f"job-{index}")) == 4
    assert_no_duplicates(platform)


def test_partition_plus_failover_race_never_duplicates():
    """The nastiest interleaving: a partitioned manager races the Shard
    Manager's fail-over. The 40 s < 60 s design keeps it safe for any
    partition length."""
    for partition_seconds in (10.0, 39.0, 45.0, 59.0, 90.0, 300.0):
        platform = chaos_platform(seed=int(partition_seconds))
        victim = next(
            manager for manager in platform.task_managers.values()
            if manager.running_task_ids()
        )
        victim.partitioned = True
        end = platform.now + partition_seconds
        while platform.now < end:
            platform.run_for(seconds=min(10.0, end - platform.now))
            assert_no_duplicates(platform)
        victim.partitioned = False
        platform.run_for(minutes=5)
        assert_no_duplicates(platform)
        total = sum(
            len(platform.tasks_of_job(f"job-{index}")) for index in range(4)
        )
        assert total == 16, f"all tasks back after {partition_seconds}s split"
