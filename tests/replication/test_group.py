"""ReplicationGroup: lease election, catch-up, snapshot transfer,
failover — on a bare platform (scenario-level proofs live in
tests/chaos/test_replication_scenarios.py)."""

import pytest

from repro.errors import DegradedModeError
from repro.jobs import ConfigLevel
from repro.jobs.model import JobSpec
from repro.platform import Turbine
from repro.replication import COMMAND_LOG_NAME, ReplicationError


def make_platform(seed=1, **repl_kwargs):
    platform = Turbine.create(num_hosts=2, seed=seed)
    group = platform.attach_replication(**repl_kwargs)
    platform.provision(
        JobSpec(job_id="t/j", input_category="cat", task_count=2)
    )
    platform.start()
    return platform, group


def test_bootstrap_leader_and_log():
    platform, group = make_platform()
    assert group.leader_id == "replica-0"
    assert group.has_leader
    assert platform.scribe.logs[COMMAND_LOG_NAME] is group.log
    # Provisioning before start already hit the log via the sink.
    assert group.log.head_index > 0


def test_followers_reach_byte_identity():
    platform, group = make_platform()
    platform.run_for(minutes=5)
    assert group.in_sync
    snapshots = {
        replica_id: group.replica_snapshot(replica_id)
        for replica_id in group.replicas
    }
    assert len(set(snapshots.values())) == 1


def test_fault_free_run_records_no_events():
    platform, group = make_platform()
    platform.run_for(minutes=10)
    assert list(group.events) == []
    assert group.failovers == []


def test_leader_crash_degrades_endpoint_then_fails_over():
    platform, group = make_platform()
    platform.run_for(minutes=5)
    group.crash("leader")
    assert not group.has_leader
    with pytest.raises(DegradedModeError):
        platform.job_store.job_ids()
    # Lease (10s) + one heartbeat tick (3s) bounds the leaderless window.
    platform.run_for(seconds=15)
    assert group.has_leader
    assert group.leader_id == "replica-1"   # highest applied, lowest id
    assert platform.job_store.job_ids() == ["t/j"]
    assert len(group.failovers) == 1
    __, leaderless = group.failovers[0]
    assert leaderless < 40.0                # beats the reboot clock
    kinds = [event.kind for event in group.events]
    assert kinds == ["leader-lost", "leader-elected"]


def test_writes_survive_failover_exactly_once():
    platform, group = make_platform()
    platform.run_for(minutes=2)
    platform.job_service.patch("t/j", ConfigLevel.ONCALL, {"task_count": 3})
    group.crash("leader")
    platform.run_for(seconds=20)
    # The patched expected config survived the leader with it applied.
    assert platform.job_service.expected_config("t/j")["task_count"] == 3
    platform.run_for(minutes=2)
    assert group.in_sync
    assert group.replica_snapshot(group.leader_id) == group.replica_snapshot(
        "replica-2"
    )


def test_no_election_without_catchup_capable_candidate():
    platform, group = make_platform()
    platform.run_for(minutes=1)
    group.crash("replica-1")
    group.crash("replica-2")
    group.crash("leader")
    platform.run_for(seconds=30)
    assert not group.has_leader             # everyone is dead: stalled
    group.restart("replica-1")
    platform.run_for(seconds=30)
    # The log covers the store's whole history, so the rejoined replica
    # rebuilt by full replay (no leader to snapshot from) and won.
    assert group.has_leader
    assert group.leader_id == "replica-1"


def test_rejoin_bootstraps_via_snapshot():
    platform, group = make_platform()
    platform.run_for(minutes=2)
    group.crash("replica-2")
    platform.job_service.patch("t/j", ConfigLevel.ONCALL, {"task_count": 3})
    group.trim_log()
    group.restart("replica-2")
    platform.run_for(seconds=10)
    assert group.in_sync
    assert any(event.kind == "snapshot-install" for event in group.events)
    assert group.replica_snapshot("replica-2") == (
        platform.job_store.dump_snapshot()
    )


def test_crash_restart_are_idempotent_and_validated():
    platform, group = make_platform()
    replica_id = group.crash("replica-1")
    assert replica_id == "replica-1"
    assert group.crash("replica-1") == "replica-1"   # already down: no-op
    group.restart("replica-1")
    group.restart("replica-1")                       # already up: no-op
    with pytest.raises(ReplicationError):
        group.crash("replica-9")
    with pytest.raises(ReplicationError):
        group.restart("replica-9")


def test_constructor_validation():
    platform = Turbine.create(num_hosts=1, seed=0)
    with pytest.raises(ReplicationError):
        platform.attach_replication(replicas=1)
    with pytest.raises(ReplicationError):
        platform.attach_replication(heartbeat_interval=10.0, lease_timeout=5.0)


def test_lagging_replica_detected_then_drains():
    platform, group = make_platform(catchup_interval=60.0)
    platform.run_for(seconds=5)
    platform.job_service.patch("t/j", ConfigLevel.ONCALL, {"task_count": 3})
    # The command landed in the log but the slow catch-up timer has not
    # fired yet: followers are lagging (ISSUE satellite — this must read
    # as "not yet converged", never as a placement violation).
    assert group.lagging_replicas() == ["replica-1", "replica-2"]
    assert not group.in_sync
    platform.run_for(seconds=60)
    assert group.lagging_replicas() == []
    assert group.in_sync

def test_crash_leader_twice_needs_a_leader():
    platform, group = make_platform()
    group.crash("leader")
    with pytest.raises(ReplicationError):
        group.crash("leader")               # nobody is leading now


def test_replica_snapshot_of_dead_replica_raises():
    platform, group = make_platform()
    group.crash("replica-1")
    with pytest.raises(ReplicationError):
        group.replica_snapshot("replica-1")


def test_stop_cancels_timers():
    platform, group = make_platform()
    platform.run_for(minutes=1)
    head = group.log.head_index
    group.stop()
    platform.job_service.patch("t/j", ConfigLevel.ONCALL, {"task_count": 3})
    platform.run_for(minutes=2)
    # The sink still logs (it is the store's, not the timers') but no
    # catch-up ran, so followers stay behind.
    assert group.log.head_index > head
    assert group.lagging_replicas()
    group.start()
    platform.run_for(seconds=10)
    assert group.in_sync


def test_non_genesis_rejoin_waits_for_a_leader():
    """Replication attached mid-life (state predates the log): a replica
    that lost its disk can only recover via leader snapshot. With no
    leader alive it must wait, not fabricate state from a partial log."""
    platform = Turbine.create(num_hosts=2, seed=1)
    platform.provision(
        JobSpec(job_id="t/j", input_category="cat", task_count=2)
    )
    group = platform.attach_replication()
    platform.start()
    platform.run_for(minutes=1)
    group.crash("replica-1")
    group.crash("replica-2")
    group.crash("leader")
    group.restart("replica-1")
    platform.run_for(minutes=2)
    assert not group.has_leader             # stalled, correctly
    # A leader returning unblocks the snapshot path. Restarting the old
    # leader cannot help (its disk is gone too) — instead verify the
    # stall is stable and nothing invented a leader from partial state.
    assert group.replicas["replica-1"].applied is None
