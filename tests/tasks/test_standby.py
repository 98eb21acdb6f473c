"""The hot-standby plane: placement, takeover, handoff — and its index.

Unit cases drive :class:`~repro.tasks.standby.StandbyPlane` on a small
real platform (the plane has no seam worth faking: its inputs are the
Task Service's spec table and the Task Managers' ``tasks`` / ``standbys``
dicts). The hypothesis suite is the safety argument for answering "where
does this task run" from the task-location index instead of a fleet
scan: after every step of a random fault / mutation sequence the lookup
must equal :func:`repro.testing.reference.scan_primary_manager`, the
index must equal a rebuild from the managers the platform still has, the
actuator's per-job manager list must equal the full walk, and each
manager's own per-task structures (``tasks`` / ``standbys``, container
reservations, shard assignment, open recovery windows) must agree.

The second hypothesis suite is the safety argument for skipping a tick
(or a Task Manager refresh) whose inputs did not change: the guarded
plane must decide exactly what
:class:`repro.testing.reference.PollingStandbyPlane` decides on a twin
platform built by :func:`repro.testing.reference.reference_forms`, and a
reconcile forced where a refresh would skip must change nothing.
"""

from contextlib import nullcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JobSpec, PlatformConfig, Turbine
from repro.jobs import ConfigLevel
from repro.tasks.manager import TaskManager
from repro.tasks.standby import PROMOTION_LOG
from repro.testing.reference import (
    PollingStandbyPlane,
    reference_forms,
    scan_hosting_managers,
    scan_primary_manager,
)
from repro.types import TaskState

NUM_HOSTS = 3
CONTAINERS_PER_HOST = 2
NUM_SHARDS = 8
JOBS = ("alpha", "beta")


def build_platform(
    num_hosts=NUM_HOSTS, jobs=JOBS, task_count=2, num_shards=NUM_SHARDS,
):
    """A small started fleet with ``jobs`` opted in."""
    platform = Turbine.create(
        num_hosts=num_hosts, seed=5,
        config=PlatformConfig(
            num_shards=num_shards, containers_per_host=CONTAINERS_PER_HOST,
            hot_standby=True,
        ),
    )
    platform.start()
    for job_id in jobs:
        provision(platform, job_id, task_count)
    platform.run_for(minutes=3)
    return platform


def provision(platform, job_id, task_count=2):
    platform.provision(JobSpec(
        job_id=job_id, input_category=f"cat-{job_id}",
        task_count=task_count, task_count_limit=8, hot_standby=True,
    ))


def primary_of(platform, task_id):
    return scan_primary_manager(platform, task_id)


def replica_host(platform, task_id):
    return platform.task_managers[platform.standby.placements[task_id]]


# ----------------------------------------------------------------------
# Unit cases
# ----------------------------------------------------------------------
class TestPlacement:
    def test_every_opted_in_task_gets_one_passive_replica(self):
        platform = build_platform()
        wanted = {f"{job}:{index}" for job in JOBS for index in range(2)}
        assert set(platform.standby.placements) == wanted
        for task_id in wanted:
            replica = replica_host(platform, task_id).standbys[task_id]
            assert replica.state == TaskState.STANDBY
            assert not replica.promoted
        assert platform.standby.reserved_memory_gb() > 0.0
        assert platform.standby.promotions == []
        assert list(platform.standby.events) == []  # placement is silent

    def test_replica_never_shares_a_host_with_its_primary(self):
        platform = build_platform()
        for task_id in platform.standby.placements:
            primary = primary_of(platform, task_id)
            assert primary is not None
            assert (
                replica_host(platform, task_id).container.host_id
                != primary.container.host_id
            )

    def test_single_host_fleet_places_nothing(self):
        # Anti-affinity has no candidate: better no replica than one that
        # dies with its primary.
        platform = build_platform(num_hosts=1)
        assert platform.tasks_of_job("alpha")
        assert platform.standby.placements == {}

    def test_a_second_host_gets_the_replicas_on_the_next_tick(self):
        # New managers are new candidates: the spawn alone (no shard has
        # moved yet) must wake the guarded tick up.
        platform = build_platform(num_hosts=1)
        platform.add_host("host-1")
        platform.run_for(seconds=1.0)
        assert set(platform.standby.placements) == {
            f"{job}:{index}" for job in JOBS for index in range(2)
        }

    def test_jobs_that_did_not_opt_in_get_no_replica(self):
        platform = build_platform(jobs=())
        platform.provision(
            JobSpec(job_id="plain", input_category="cat-plain", task_count=2)
        )
        platform.run_for(minutes=3)
        assert platform.tasks_of_job("plain")
        assert platform.standby.placements == {}


class TestPromotion:
    def test_host_loss_promotes_on_the_next_tick(self):
        platform = build_platform()
        task_id = "alpha:0"
        doomed_host = primary_of(platform, task_id).container.host_id
        target = platform.standby.placements[task_id]
        failed_at = platform.now
        platform.cluster.fail_host(doomed_host)
        platform.run_for(seconds=1.0)
        record = next(
            r for r in platform.standby.promotions if r.task_id == task_id
        )
        assert record.container_id == target
        assert record.time == failed_at + 1.0
        assert 0.0 <= record.takeover_lag <= 1.0
        replica = platform.task_managers[target].standbys[task_id]
        assert replica.promoted and replica.state == TaskState.RUNNING
        assert task_id in platform.tasks_of_job("alpha")
        # One durable audit record per promotion.
        promoted = [
            payload for __, payload
            in platform.scribe.logs[PROMOTION_LOG].read_from(0)
        ]
        assert len(promoted) == len(platform.standby.promotions)
        assert any(
            event.kind == "standby-promote" and task_id in event.detail
            for event in platform.standby.events
        )

    def test_host_utilization_counts_a_promoted_replica(self):
        # A promoted replica stays in ``standbys``, RUNNING and consuming
        # like a primary; a walk over ``tasks`` alone reported 0 tasks and
        # 0 CPU for the whole takeover window.
        platform = build_platform()

        def tasks_in_utilization():
            return sum(
                entry["tasks"]
                for entry in platform.host_utilization().values()
            )

        assert tasks_in_utilization() == platform.running_task_count() == 4
        task_id = "alpha:0"
        platform.cluster.fail_host(
            primary_of(platform, task_id).container.host_id
        )
        platform.run_for(seconds=5.0)
        assert platform.standby.promotions
        assert tasks_in_utilization() == platform.running_task_count() > 0
        platform.run_for(minutes=3)  # failover restarts the primaries
        assert tasks_in_utilization() == platform.running_task_count() == 4

    def test_health_report_counts_a_promoted_replica(self):
        # The same walk over ``tasks`` alone made the health report page
        # on "tasks not running" for every task a standby had taken over.
        platform = build_platform()
        health = platform.attach_health_reporter()
        assert health.report().tasks_running == platform.running_task_count() == 4
        task_id = "alpha:0"
        platform.cluster.fail_host(
            primary_of(platform, task_id).container.host_id
        )
        platform.run_for(seconds=5.0)
        assert platform.standby.promotions
        report = health.report()
        assert report.tasks_running == platform.running_task_count() == 4
        assert report.pct_tasks_not_running == 0.0

    def test_promotion_happens_once_per_outage(self):
        platform = build_platform()
        task_id = "alpha:0"
        platform.cluster.fail_host(
            primary_of(platform, task_id).container.host_id
        )
        platform.run_for(seconds=20.0)  # twenty ticks, primary still gone
        assert [
            r.task_id for r in platform.standby.promotions
        ].count(task_id) == 1

    def test_dead_container_with_its_tasks_intact_is_not_a_primary(self):
        # A killed container keeps its ``tasks`` dict (only ``shutdown``
        # empties it) and so stays in the index: liveness must be checked
        # at lookup or the plane would never promote.
        platform = build_platform()
        task_id = "alpha:0"
        primary = primary_of(platform, task_id)
        primary.container.kill()
        assert task_id in primary.tasks
        assert primary.container_id in platform.task_hosts["alpha"][task_id]
        assert platform.standby._primary_manager("alpha", task_id) is None
        platform.run_for(seconds=1.0)
        assert task_id in [r.task_id for r in platform.standby.promotions]


class TestHandoffAndRetire:
    def test_restarting_primary_retires_the_promoted_replica_first(self):
        platform = build_platform()
        task_id = "alpha:0"
        platform.cluster.fail_host(
            primary_of(platform, task_id).container.host_id
        )
        platform.run_for(seconds=5.0)
        assert platform.standby.promotions
        # Shard fail-over (60 s) restarts the real task elsewhere; the
        # Task Manager calls release_for_start before it starts.
        platform.run_for(minutes=3)
        handoffs = [
            event for event in platform.standby.events
            if event.kind == "standby-handoff" and task_id in event.detail
        ]
        assert len(handoffs) == 1
        primary = primary_of(platform, task_id)
        assert primary is not None
        assert primary.tasks[task_id].state == TaskState.RUNNING
        # Exactly one running incarnation, and a fresh passive replica.
        running = [
            manager.container_id
            for manager in platform.task_managers.values()
            if manager.alive and task_id in manager.running_task_ids()
        ]
        assert running == [primary.container_id]
        replica = replica_host(platform, task_id).standbys[task_id]
        assert replica.state == TaskState.STANDBY

    def test_release_for_start_drops_a_passive_replica_silently(self):
        platform = build_platform()
        task_id = "alpha:0"
        host = replica_host(platform, task_id)
        platform.standby.release_for_start(task_id)
        assert task_id not in platform.standby.placements
        assert task_id not in host.standbys
        assert list(platform.standby.events) == []
        platform.standby.release_for_start(task_id)  # idempotent
        platform.run_for(seconds=1.0)
        assert task_id in platform.standby.placements  # re-placed

    def test_deprovision_retires_replicas_and_frees_their_memory(self):
        platform = build_platform()
        platform.deprovision("alpha")
        platform.run_for(seconds=1.0)
        assert all(
            not task_id.startswith("alpha:")
            for task_id in platform.standby.placements
        )
        assert all(
            not task_id.startswith("alpha:")
            for manager in platform.task_managers.values()
            for task_id in manager.standbys
        )
        assert "alpha" not in platform.task_hosts

    def test_rescale_down_retires_the_surplus_replica(self):
        platform = build_platform(task_count=4)
        assert "alpha:3" in platform.standby.placements
        platform.job_service.patch(
            "alpha", ConfigLevel.ONCALL, {"task_count": 2}
        )
        platform.run_for(minutes=4)
        assert {
            task_id for task_id in platform.standby.placements
            if task_id.startswith("alpha:")
        } == {"alpha:0", "alpha:1"}

    def test_lost_replica_is_replaced(self):
        platform = build_platform()
        task_id = "alpha:0"
        before = platform.standby.placements[task_id]
        platform.cluster.fail_host(
            platform.task_managers[before].container.host_id
        )
        platform.run_for(seconds=2.0)
        after = platform.standby.placements.get(task_id)
        if primary_of(platform, task_id) is not None:
            assert after is not None and after != before
            assert platform.task_managers[after].alive


class TestLastAlivePruning:
    """Regression: ``_last_alive`` outlived its task.

    The stamp survived a deprovision, so a job re-provisioned under the
    same id inherited it through ``_place``'s ``setdefault`` — and a
    primary dying inside the new replica's first tick was reported as
    having failed back when the *old* job was last seen.
    """

    def test_stamp_leaves_with_the_task(self):
        platform = build_platform()
        assert set(platform.standby._last_alive) == set(
            platform.standby.placements
        )
        platform.deprovision("alpha")
        platform.run_for(seconds=1.0)
        assert all(
            not task_id.startswith("alpha:")
            for task_id in platform.standby._last_alive
        )

    def test_reprovisioned_job_does_not_inherit_the_old_stamp(self):
        platform = build_platform()
        plane = platform.standby
        task_id = "alpha:0"
        platform.deprovision("alpha")
        platform.run_for(minutes=10)  # the old stamp is now ten minutes stale
        provision(platform, "alpha")
        # Step second by second up to the tick that places the new
        # replica, then kill the primary before the plane's next tick can
        # refresh the stamp.
        for __ in range(300):
            platform.run_for(seconds=1.0)
            if task_id in plane.placements:
                break
        else:
            pytest.fail("replica was never placed")
        placed_at = platform.now
        primary_of(platform, task_id).container.kill()
        platform.run_for(seconds=1.0)
        record = next(r for r in plane.promotions if r.task_id == task_id)
        assert record.time == placed_at + 1.0
        # Measured from when the *new* primary was last seen, not from
        # the deprovisioned job's last tick ten minutes earlier.
        assert record.takeover_lag == 1.0


def replicas_by_task(platform):
    """Task id -> containers hosting a replica of it, fleet-wide."""
    hosts = {}
    for container_id in sorted(platform.task_managers):
        for task_id in platform.task_managers[container_id].standbys:
            hosts.setdefault(task_id, []).append(container_id)
    return hosts


class TestReattach:
    """A promoted replica serves until its primary restarts, then hands
    off to it, and the plane's promotions match the durable log."""

    def test_promoted_replica_serves_until_its_primary_restarts(self):
        platform = build_platform()
        task_id = "alpha:0"
        target = platform.standby.placements[task_id]
        platform.cluster.fail_host(
            primary_of(platform, task_id).container.host_id
        )
        platform.run_for(seconds=2)
        assert platform.task_managers[target].standbys[task_id].promoted
        plane = platform.standby
        assert [r.task_id for r in plane.promotions].count(task_id) == 1
        platform.run_for(seconds=5)
        replica = platform.task_managers[target].standbys[task_id]
        assert replica.promoted and replica.state == TaskState.RUNNING
        assert task_id in platform.tasks_of_job("alpha")
        # Shard fail-over restarts the primary; the plane hands off.
        platform.run_for(minutes=3)
        assert [
            event.kind for event in plane.events if task_id in event.detail
        ] == ["standby-promote", "standby-handoff"]
        assert primary_of(platform, task_id) is not None
        assert all(
            len(hosts) == 1 for hosts in replicas_by_task(platform).values()
        )
        assert not replica_host(platform, task_id).standbys[task_id].promoted
        promoted = [
            payload for __, payload
            in platform.scribe.logs[PROMOTION_LOG].read_from(0)
        ]
        assert len(promoted) == len(plane.promotions)


# ----------------------------------------------------------------------
# Scaling guard: a count, not a stopwatch
# ----------------------------------------------------------------------
GUARD_JOBS = tuple(f"job-{index}" for index in range(6))


def alive_reads_per_tick(num_hosts, monkeypatch):
    """``TaskManager.alive`` reads made by one quiescent standby tick and
    by the tick right after one primary's container is killed."""
    platform = build_platform(
        num_hosts=num_hosts, jobs=GUARD_JOBS, num_shards=64
    )
    replicas = len(platform.standby.placements)
    # A container running primaries but no replica: killing it loses no
    # replica, so the changed tick has nothing to re-place.
    doomed = next(
        platform.task_managers[cid] for cid in sorted(platform.task_managers)
        if platform.task_managers[cid].tasks
        and not platform.task_managers[cid].standbys
    )
    reads = [0]
    real = TaskManager.alive

    def counting(self):
        reads[0] += 1
        return real.fget(self)

    monkeypatch.setattr(TaskManager, "alive", property(counting))
    try:
        platform.standby._tick()
        quiescent = reads[0]
        doomed.container.kill()
        platform.standby._tick()
    finally:
        monkeypatch.setattr(TaskManager, "alive", real)
    return replicas, quiescent, reads[0] - quiescent


def test_quiescent_tick_reads_liveness_zero_times_a_changed_tick_per_replica(
    monkeypatch,
):
    """A tick whose inputs did not change reads nothing; the tick after
    a container loss is O(replicas): doubling the containers at a fixed
    replica count must not change how often it reads liveness. (With a
    per-replica fleet scan the reads grow with replicas × containers.)"""
    replicas, quiescent, changed = alive_reads_per_tick(4, monkeypatch)
    replicas_doubled, quiescent_doubled, changed_doubled = (
        alive_reads_per_tick(8, monkeypatch)
    )
    assert replicas == replicas_doubled == 2 * len(GUARD_JOBS)
    assert quiescent == quiescent_doubled == 0
    # One read for the replica's host, one for the primary's.
    assert changed == changed_doubled == 2 * replicas


# ----------------------------------------------------------------------
# Index ≡ scan, under generated fault / mutation sequences
# ----------------------------------------------------------------------
def hosted(manager):
    """Every task and replica a manager holds."""
    return list(manager.tasks.values()) + list(manager.standbys.values())


def rebuilt_index(platform):
    """The task-location index, recomputed from the managers themselves."""
    index = {}
    for container_id, manager in platform.task_managers.items():
        for task in hosted(manager):
            index.setdefault(task.spec.job_id, {}).setdefault(
                task.spec.task_id, set()
            ).add(container_id)
    return index


def index_as_sets(platform):
    """The task-location index with each entry's hosts as a set (an entry
    is a tuple in the order its hosts took the id in)."""
    return {
        job_id: {task_id: set(hosts) for task_id, hosts in tasks.items()}
        for job_id, tasks in platform.task_hosts.items()
    }


def known_tasks(platform):
    """Every (job, task id) anything in the platform still mentions."""
    known = {
        (spec.job_id, spec.task_id)
        for job_id in platform.task_service.job_ids()
        for spec in platform.task_service.specs_of(job_id)
    }
    for manager in platform.task_managers.values():
        known.update(
            (task.spec.job_id, task.spec.task_id) for task in hosted(manager)
        )
    for job_id, tasks in platform.task_hosts.items():
        known.update((job_id, task_id) for task_id in tasks)
    # Ids nobody hosts or specifies must miss in both forms too.
    known.update((job, f"{job}:{index}") for job in JOBS for index in range(8))
    return known


def assert_hosting_is_consistent(manager):
    """Everything a Task Manager keeps per hosted id agrees: one way in
    and one way out write all of it, so no structure can fall behind."""
    hosted_ids = set(manager.tasks) | set(manager.standbys)
    if manager.alive:  # a killed container has lost its reservations
        assert set(manager.container.reservations) == set(manager.tasks) | {
            f"standby:{task_id}" for task_id in manager.standbys
        }
    for task in manager.tasks.values():
        assert task.shard_id in manager.assigned_shards, task
    assert all(task.shard_id is None for task in manager.standbys.values())
    assert set(manager._failed_at) <= hosted_ids


def assert_index_matches_scan(platform):
    assert index_as_sets(platform) == rebuilt_index(platform)
    for manager in platform.task_managers.values():
        assert_hosting_is_consistent(manager)
    plane = platform.standby
    for job_id, task_id in sorted(known_tasks(platform)):
        assert plane._primary_manager(job_id, task_id) is scan_primary_manager(
            platform, task_id
        ), task_id
    for job_id in sorted({job for job, __ in known_tasks(platform)}):
        indexed = platform.actuator._hosting_managers(job_id)
        walked = scan_hosting_managers(platform.shard_manager, job_id)
        assert [m.container_id for m in indexed] == [
            m.container_id for m in walked
        ]
        assert all(a is b for a, b in zip(indexed, walked))


def nth_manager(platform, index):
    managers = [
        platform.task_managers[cid] for cid in sorted(platform.task_managers)
    ]
    return managers[index % len(managers)] if managers else None


def apply_step(platform, step, state):
    kind = step[0]
    if kind == "run":
        platform.run_for(seconds=step[1])
        return
    if kind in ("fail_host", "recover_host"):
        host_id = f"host-{step[1] % state['hosts']}"
        host = platform.cluster.hosts[host_id]
        if kind == "fail_host" and host.alive:
            platform.cluster.fail_host(host_id)
        elif kind == "recover_host" and not host.alive:
            platform.recover_host(host_id)
        return
    if kind == "add_host":
        if state["hosts"] < NUM_HOSTS + 2:
            platform.add_host(f"host-{state['hosts']}")
            state["hosts"] += 1
        return
    if kind == "rescale":
        job_id = JOBS[step[1] % len(JOBS)]
        if platform.job_store.exists(job_id):
            platform.job_service.patch(
                job_id, ConfigLevel.ONCALL, {"task_count": step[2]}
            )
        return
    if kind == "deprovision":
        job_id = JOBS[step[1] % len(JOBS)]
        if platform.job_store.exists(job_id):
            platform.deprovision(job_id)
        return
    if kind == "provision":
        job_id = JOBS[step[1] % len(JOBS)]
        if not platform.job_store.exists(job_id):
            provision(platform, job_id)
        return
    if kind == "stop_job":
        platform.actuator.stop_tasks(JOBS[step[1] % len(JOBS)])
        return
    manager = nth_manager(platform, step[1])
    if manager is None:
        return
    if kind == "kill_container":
        manager.container.kill()  # no host loss: ``tasks`` stays populated
    elif kind == "reboot":
        if manager.alive:
            manager.reboot()
    elif kind == "stop_job_tasks":
        manager.stop_job_tasks(JOBS[step[2] % len(JOBS)])
    elif kind == "add_shard":
        # Straight at the manager, behind the Shard Manager's back: the
        # failover race that leaves one task id on two live managers.
        if manager.alive:
            manager.add_shard(f"shard-{step[2] % NUM_SHARDS:05d}")
    elif kind == "drop_shard":
        manager.drop_shard(f"shard-{step[2] % NUM_SHARDS:05d}")
    elif kind == "drain":
        platform.shard_manager.drain(manager.container_id)
    elif kind == "undrain":
        platform.shard_manager.undrain(manager.container_id)


small = st.integers(0, 7)
#: One step; ``tests/integration/test_deprovision.py`` extends the set.
step = st.one_of(
    st.tuples(st.just("run"), st.sampled_from([1.0, 10.0, 45.0, 120.0])),
    st.tuples(st.just("fail_host"), small),
    st.tuples(st.just("recover_host"), small),
    st.tuples(st.just("add_host")),
    st.tuples(st.just("rescale"), small, st.integers(1, 4)),
    st.tuples(st.just("deprovision"), small),
    st.tuples(st.just("provision"), small),
    st.tuples(st.just("stop_job"), small),
    st.tuples(st.just("kill_container"), small),
    st.tuples(st.just("reboot"), small),
    st.tuples(st.just("stop_job_tasks"), small, small),
    st.tuples(st.just("add_shard"), small, small),
    st.tuples(st.just("drop_shard"), small, small),
    st.tuples(st.just("drain"), small),
    st.tuples(st.just("undrain"), small),
)
steps = st.lists(step, min_size=1, max_size=24)


@settings(max_examples=40, deadline=None)
@given(sequence=steps)
def test_index_lookup_equals_fleet_scan_after_every_step(sequence):
    platform = build_platform()
    state = {"hosts": NUM_HOSTS}
    assert_index_matches_scan(platform)
    for step in sequence:
        apply_step(platform, step, state)
        assert_index_matches_scan(platform)
    platform.run_for(minutes=3)
    assert_index_matches_scan(platform)


def test_one_task_id_on_two_live_managers_resolves_to_the_lowest_id():
    """The failover race, pinned: both incarnations are in the index and
    the lookup picks the one the ascending scan would reach first."""
    platform = build_platform()
    task_id = "alpha:0"
    owner = primary_of(platform, task_id)
    shard_id = owner.tasks[task_id].shard_id
    other = next(
        manager for manager in platform.task_managers.values()
        if manager is not owner and task_id not in manager.standbys
    )
    other.add_shard(shard_id)
    assert set(platform.task_hosts["alpha"][task_id]) >= {
        owner.container_id, other.container_id
    }
    expected = min(owner.container_id, other.container_id)
    assert platform.standby._primary_manager(
        "alpha", task_id
    ).container_id == expected
    assert_index_matches_scan(platform)
    # Lose the winner: the lookup falls through to the survivor.
    platform.task_managers[expected].container.kill()
    assert_index_matches_scan(platform)
    assert platform.standby._primary_manager("alpha", task_id) is not None


# ----------------------------------------------------------------------
# Guarded ≡ polling, under generated fault / mutation sequences
# ----------------------------------------------------------------------
def apply_guard_step(platform, step, state):
    """The index suite's steps, plus ``hot_standby`` roster flips and
    Task Service outages (managers then refresh from their last index)."""
    kind = step[0]
    if kind == "roster":
        job_id = JOBS[step[1] % len(JOBS)]
        if platform.job_store.exists(job_id):
            platform.job_service.patch(
                job_id, ConfigLevel.ONCALL, {"hot_standby": step[2]}
            )
    elif kind == "task_service":
        service = platform.task_service
        service.fail() if step[1] else service.recover()
    else:
        apply_step(platform, step, state)


def standby_record(platform):
    """Everything the standby plane decided, as its exports see it."""
    plane = platform.standby
    log = platform.scribe.logs.get(PROMOTION_LOG)
    plane._settle_stamps()
    return {
        "promotions": list(plane.promotions),
        "placements": dict(plane.placements),
        "events": list(plane.events),
        "log": [payload for __, payload in log.read_from(0)] if log else [],
        "last_alive": dict(plane._last_alive),
    }


def assert_skipped_refreshes_are_no_ops(platform):
    """Wherever a refresh would skip its reconcile now, a forced one
    hosts, unhosts and restarts nothing (each would bump the version).
    Returns how many managers were checked."""
    checked = 0
    for container_id in sorted(platform.task_managers):
        manager = platform.task_managers[container_id]
        if not manager.alive or manager._cached_index is not manager._reconciled:
            continue
        before = platform.cluster.fleet_version.value
        manager._reconcile_assigned()
        assert platform.cluster.fleet_version.value == before, container_id
        checked += 1
    return checked


guard_steps = st.lists(
    st.one_of(
        step,
        st.tuples(st.just("roster"), small, st.booleans()),
        st.tuples(st.just("task_service"), st.booleans()),
    ),
    min_size=1, max_size=20,
)


@settings(max_examples=50, deadline=None)
@given(sequence=guard_steps)
def test_guarded_plane_equals_the_polling_plane_after_every_step(sequence):
    """The polling twin is built, and every step of it is taken, inside
    :func:`reference_forms` (managers a step spawns are reference ones)."""
    guarded = build_platform()
    with reference_forms():
        polling = build_platform()
    assert type(polling.standby) is PollingStandbyPlane
    arms = (
        (guarded, {"hosts": NUM_HOSTS}, nullcontext),
        (polling, {"hosts": NUM_HOSTS}, reference_forms),
    )
    assert assert_skipped_refreshes_are_no_ops(guarded) > 0
    assert standby_record(guarded) == standby_record(polling)
    for step in sequence:
        for platform, state, forms in arms:
            with forms():
                apply_guard_step(platform, step, state)
        assert standby_record(guarded) == standby_record(polling), step
        assert_skipped_refreshes_are_no_ops(guarded)
    for platform, __, forms in arms:
        with forms():
            platform.task_service.recover()
            platform.run_for(minutes=3)
    assert standby_record(guarded) == standby_record(polling)
    assert_skipped_refreshes_are_no_ops(guarded)
