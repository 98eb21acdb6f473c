"""Tests for the ADD_SHARD-timeout container fail-over (section IV-A2)."""

import pytest

from repro import JobSpec, PlatformConfig, Turbine


def platform_with_job():
    platform = Turbine.create(
        num_hosts=3, seed=41,
        config=PlatformConfig(num_shards=16, containers_per_host=2),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=8)
    )
    platform.run_for(minutes=3)
    return platform


def test_slow_add_triggers_container_failover():
    platform = platform_with_job()
    victim = next(
        manager for manager in platform.task_managers.values()
        if manager.assigned_shards
    )
    victim.slow_add = True
    # Force a movement toward the slow container.
    donor = next(
        manager for manager in platform.task_managers.values()
        if manager is not victim and manager.assigned_shards
    )
    shard = sorted(donor.assigned_shards)[0]
    platform.shard_manager._move_shard(
        shard, donor.container_id, victim.container_id
    )
    # The slow container was failed over: rebooted and shards reassigned.
    assert victim.reboot_count >= 1
    assert not victim.assigned_shards
    events = platform.shard_manager.failover_events
    assert any(e.container_id == victim.container_id for e in events)


def test_slow_add_failover_never_duplicates_tasks():
    platform = platform_with_job()
    victim = next(
        manager for manager in platform.task_managers.values()
        if manager.running_task_ids()
    )
    victim.slow_add = True
    donor = next(
        manager for manager in platform.task_managers.values()
        if manager is not victim and manager.assigned_shards
    )
    shard = sorted(donor.assigned_shards)[0]
    platform.shard_manager._move_shard(
        shard, donor.container_id, victim.container_id
    )
    platform.run_for(minutes=3)
    tasks = platform.running_tasks()
    assert len(tasks) == len(set(tasks))
    # Every provisioned task is running exactly once somewhere.
    assert len(platform.tasks_of_job("job")) == 8


def test_live_but_unresponsive_container_rebooted_on_failover():
    """A container whose heartbeats stop (but which keeps running tasks)
    must be rebooted by the fail-over before its shards move — otherwise
    the old tasks would keep processing alongside the new ones."""
    platform = platform_with_job()
    victim = next(
        manager for manager in platform.task_managers.values()
        if manager.running_task_ids()
    )
    # Freeze heartbeats without the proactive 40 s self-timeout (simulates
    # a wedged heartbeat thread rather than a network partition): the
    # Shard Manager's heartbeat entry points drop this container's id,
    # and no other.
    silenced = victim.container_id
    shard_manager = platform.shard_manager
    many, one = shard_manager.heartbeat_many, shard_manager.heartbeat
    shard_manager.heartbeat_many = lambda managers: many({
        container_id: manager for container_id, manager in managers.items()
        if container_id != silenced
    })
    shard_manager.heartbeat = (
        lambda container_id: None if container_id == silenced else one(container_id)
    )
    platform.run_for(minutes=3)  # 60 s stale → Shard Manager fail-over
    assert victim.reboot_count >= 1, "fail-over must reboot the live victim"
    assert {
        event.container_id for event in platform.shard_manager.failover_events
    } == {victim.container_id}
    tasks = platform.running_tasks()
    assert len(tasks) == len(set(tasks))
    assert len(platform.tasks_of_job("job")) == 8
