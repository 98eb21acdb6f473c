"""The heartbeat sweep: one ``container-heartbeat`` timer per phase.

Managers started at the same instant share one sweep and heartbeat in
spawn order; a manager whose own timer would not have been adjacent to
the sweep's event (a different instant, or another event scheduled for
the same instant in between) gets its own sweep. A join costs the same at
any fleet size. Also the reconnect loop of a container that stays
partitioned: one reboot, one loop.
"""

import sys

from repro import JobSpec, PlatformConfig, Turbine
from repro.sim.engine import Engine
from repro.tasks.manager import (
    HEARTBEAT_INTERVAL,
    LOAD_REPORT_INTERVAL,
    REFRESH_INTERVAL,
    HeartbeatSweep,
)

SM_CALLS = "resilience.task-manager.shard-manager.calls"


def platform(num_hosts=2, seed=5):
    turbine = Turbine.create(
        num_hosts=num_hosts, seed=seed,
        config=PlatformConfig(num_shards=8, containers_per_host=2),
    )
    turbine.start()
    return turbine


def record_ticks(turbine, log):
    """Log ``(time, container id)`` for every heartbeat the Shard Manager
    records, in the order it records them: a sweep delivers its members'
    in one ``heartbeat_many`` call, and ``heartbeat`` takes the rest."""
    shard_manager = turbine.shard_manager
    if "heartbeat_many" in vars(shard_manager):
        return
    many, one = shard_manager.heartbeat_many, shard_manager.heartbeat

    def logged_many(managers):
        own_path = many(managers)
        log.extend(
            (turbine.now, manager.container_id)
            for manager in managers if manager not in own_path
        )
        return own_path

    def logged_one(container_id):
        one(container_id)
        log.append((turbine.now, container_id))

    shard_manager.heartbeat_many = logged_many
    shard_manager.heartbeat = logged_one


def managers_on(turbine, host_id):
    return [
        manager.container_id for manager in turbine.task_managers.values()
        if manager.container.host_id == host_id
    ]


class TestPhases:
    def test_managers_started_together_share_one_sweep(self):
        turbine = platform(num_hosts=3)
        assert len(turbine._heartbeat_sweeps) == 1
        log = []
        record_ticks(turbine, log)
        turbine.run_for(seconds=2 * HEARTBEAT_INTERVAL)
        spawned = list(turbine.task_managers)
        assert log == [(10.0, cid) for cid in spawned] + [
            (20.0, cid) for cid in spawned
        ]

    def test_managers_started_at_different_instants_keep_their_phases(self):
        turbine = platform()
        first = list(turbine.task_managers)
        turbine.run_for(seconds=3.0)
        turbine.add_host("late-host")
        late = managers_on(turbine, "late-host")
        assert len(turbine._heartbeat_sweeps) == 2
        log = []
        record_ticks(turbine, log)
        turbine.run_for(seconds=2 * HEARTBEAT_INTERVAL)
        times = {}
        for at, cid in log:
            times.setdefault(cid, []).append(at)
        assert all(times[cid] == [10.0, 20.0] for cid in first)
        assert all(times[cid] == [13.0, 23.0] for cid in late)

    def test_an_intervening_same_instant_event_opens_a_new_sweep(self):
        """The adjacency rule: a manager joins a sweep only when its own
        timer would have fired right after the sweep's event."""
        turbine = platform()
        turbine.run_for(seconds=3.0)
        order = []
        turbine.add_host("host-a")
        turbine.engine.call_in(
            HEARTBEAT_INTERVAL, lambda: order.append((turbine.now, "marker"))
        )
        turbine.add_host("host-b")
        assert len(turbine._heartbeat_sweeps) == 3
        # Nothing scheduled since host-b's sweep: host-c joins it.
        turbine.add_host("host-c")
        assert len(turbine._heartbeat_sweeps) == 3
        record_ticks(turbine, order)
        turbine.run_for(seconds=HEARTBEAT_INTERVAL)
        at_13 = [cid for at, cid in order if at == 13.0]
        assert at_13 == (
            managers_on(turbine, "host-a") + ["marker"]
            + managers_on(turbine, "host-b") + managers_on(turbine, "host-c")
        )


def lines_run(function):
    """Python lines executed while ``function()`` runs, in every frame."""
    lines = 0

    def trace(frame, event, arg):
        nonlocal lines
        lines += event == "line"
        return trace

    sys.settrace(trace)
    try:
        function()
    finally:
        sys.settrace(None)
    return lines


class TestJoinCost:
    @staticmethod
    def lines_per_join(managers):
        """Arm ``managers`` managers' timers as ``TaskManager.start`` does
        — a jittered refresh, the heartbeat join, a jittered load report —
        in one instant, then count the lines one more join runs."""
        engine = Engine(seed=3)
        jitter = engine.rng.fork("jitter")
        sweeps = []

        def join():
            HeartbeatSweep.join(engine, HEARTBEAT_INTERVAL, object(), sweeps)

        for _ in range(managers):
            engine.every(REFRESH_INTERVAL, lambda: None,
                         initial_delay=jitter.uniform(0, REFRESH_INTERVAL))
            join()
            engine.every(LOAD_REPORT_INTERVAL, lambda: None,
                         initial_delay=jitter.uniform(0, LOAD_REPORT_INTERVAL))
        assert len(sweeps) == 1
        return lines_run(join)

    def test_a_join_needs_the_sweeps_instant_and_interval(self):
        """Nothing queued behind a sweep's event is not enough: a join at a
        later instant, or for another interval due at the same time, opens
        its own sweep."""
        engine = Engine(seed=3)
        sweeps = []
        first = HeartbeatSweep.join(engine, HEARTBEAT_INTERVAL, object(), sweeps)
        engine.run_until(3.0)
        later = HeartbeatSweep.join(engine, HEARTBEAT_INTERVAL, object(), sweeps)
        assert later is not first
        # Armed at 3 for 3 + 10 = 13; a 7 s sweep joined at 6 is due at 13 too.
        engine.run_until(6.0)
        other = HeartbeatSweep.join(engine, 7.0, object(), sweeps)
        assert other is not later and len(sweeps) == 3

    def test_the_work_per_join_does_not_grow_with_the_fleet(self):
        """Every refresh jittered into the first heartbeat interval used to
        be walked by every later join: starting N managers was O(N²)."""
        assert self.lines_per_join(256) == self.lines_per_join(1024)


class TestLeaving:
    def test_shutdown_leaves_the_sweep_and_the_last_cancels_its_timer(self):
        turbine = platform()
        turbine.run_for(seconds=3.0)
        turbine.add_host("late-host")
        late = [turbine.task_managers[cid] for cid in managers_on(turbine, "late-host")]
        sweep = late[0]._heartbeats
        assert all(manager._heartbeats is sweep for manager in late)
        timer = sweep._timer
        log = []
        record_ticks(turbine, log)
        late[0].shutdown()
        assert late[0]._heartbeats is None
        assert sweep in turbine._heartbeat_sweeps and timer.active
        turbine.run_for(seconds=HEARTBEAT_INTERVAL)
        assert [cid for at, cid in log if at == 13.0] == [late[1].container_id]
        late[1].shutdown()
        assert not timer.active
        assert sweep not in turbine._heartbeat_sweeps
        assert len(turbine._heartbeat_sweeps) == 1

    def test_a_failed_host_leaves_through_shutdown(self):
        turbine = platform()
        turbine.run_for(seconds=3.0)
        turbine.add_host("late-host")
        turbine.cluster.fail_host("late-host")
        assert not managers_on(turbine, "late-host")
        assert len(turbine._heartbeat_sweeps) == 1


class TestCounters:
    def test_one_shard_manager_call_per_container_heartbeat(self):
        """No jobs, so no load report reaches the Shard Manager: the only
        calls on the edge in a heartbeat interval are the heartbeats."""
        turbine = platform(num_hosts=3)
        turbine.telemetry.enabled = True
        turbine.run_for(seconds=5.0)
        before = turbine.telemetry.counter(SM_CALLS)
        turbine.run_for(seconds=3 * HEARTBEAT_INTERVAL)
        assert turbine.telemetry.counter(SM_CALLS) - before == (
            3 * len(turbine.task_managers)
        )


class TestReconnectLoop:
    def test_a_long_partition_reboots_once_and_keeps_one_loop(self):
        """The 40 s clock keeps running while a rebooted container stays
        partitioned; it must not reboot the empty container again, and
        the reconnect loop must not stack."""
        turbine = platform(num_hosts=3)
        turbine.provision(
            JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        turbine.run_for(minutes=5)
        victim = next(
            manager for manager in turbine.task_managers.values()
            if manager.running_task_ids()
        )
        registered = []
        register = turbine.shard_manager.register_container

        def counting_register(manager):
            registered.append(manager.container_id)
            register(manager)

        turbine.shard_manager.register_container = counting_register
        victim.partitioned = True
        turbine.run_for(minutes=10)
        assert victim.reboot_count == 1
        loops = [
            entry for entry in turbine.engine.queue._heap
            if not entry[2].cancelled
            and entry[2].callback == victim._try_reconnect
        ]
        assert len(loops) == 1
        victim.partitioned = False
        turbine.run_for(minutes=2)
        assert registered.count(victim.container_id) == 1
        assert victim.reboot_count == 1
        tasks = turbine.running_tasks()
        assert len(tasks) == len(set(tasks))
        assert len(turbine.tasks_of_job("job")) == 8

    def test_a_reboot_after_taking_on_work_reschedules_the_one_loop(self):
        """Until the fail-over unregisters it, a rebooted container can
        still be handed a shard; rebooting it again restarts the pending
        reconnect instead of adding a second loop."""
        turbine = platform(num_hosts=3)
        turbine.provision(
            JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        turbine.run_for(minutes=5)
        victim = next(
            manager for manager in turbine.task_managers.values()
            if manager.assigned_shards
        )
        shard = sorted(victim.assigned_shards)[0]
        victim.partitioned = True
        while victim.reboot_count == 0:
            turbine.run_for(seconds=HEARTBEAT_INTERVAL)
        victim.add_shard(shard)
        victim.reboot()
        assert victim.reboot_count == 2
        loops = [
            entry for entry in turbine.engine.queue._heap
            if not entry[2].cancelled
            and entry[2].callback == victim._try_reconnect
        ]
        assert len(loops) == 1


def log_attempts(turbine, manager):
    """Log the time of every reconnect attempt of ``manager`` (an
    instance attribute: the loop arms ``manager._try_reconnect``)."""
    attempts = []
    attempt = manager._try_reconnect

    def logged():
        attempts.append(turbine.now)
        attempt()

    manager._try_reconnect = logged
    return attempts


def log_registrations(turbine):
    """Log ``(time, container id)`` for every registration that lands."""
    registered = []
    register = turbine.shard_manager.register_container

    def counting_register(manager):
        register(manager)
        registered.append((turbine.now, manager.container_id))

    turbine.shard_manager.register_container = counting_register
    return registered


class TestReconnectCadence:
    """A rebooted container retries registration once per heartbeat
    interval for as long as it cannot register, and registers exactly
    once within one interval of the cause going away."""

    def assert_cadence(self, turbine, victim, attempts, registered, healed):
        turbine.run_for(minutes=2)
        ours = [at for at, cid in registered if cid == victim.container_id]
        assert len(ours) == 1
        assert healed < ours[0] <= healed + HEARTBEAT_INTERVAL
        assert attempts[-1] == ours[0]  # the loop ends with the success
        gaps = {b - a for a, b in zip(attempts, attempts[1:])}
        assert gaps == {HEARTBEAT_INTERVAL}

    def test_while_partitioned(self):
        turbine = platform(num_hosts=3)
        turbine.provision(
            JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        turbine.run_for(minutes=5)
        victim = next(
            manager for manager in turbine.task_managers.values()
            if manager.running_task_ids()
        )
        attempts = log_attempts(turbine, victim)
        registered = log_registrations(turbine)
        victim.partitioned = True
        turbine.run_for(minutes=10)
        assert victim.reboot_count == 1
        assert len(attempts) >= 50
        turbine.run_for(seconds=3.0)  # heal off the attempts' phase
        victim.partitioned = False
        self.assert_cadence(turbine, victim, attempts, registered, turbine.now)

    def test_while_the_shard_manager_is_down(self):
        turbine = platform(num_hosts=3)
        turbine.run_for(minutes=5)
        victim = next(iter(turbine.task_managers.values()))
        attempts = log_attempts(turbine, victim)
        registered = log_registrations(turbine)
        turbine.shard_manager.fail()
        victim.reboot()
        turbine.run_for(minutes=5, seconds=3.0)
        assert len(attempts) == 31  # one at the reboot, then every 10 s
        turbine.shard_manager.recover()
        self.assert_cadence(turbine, victim, attempts, registered, turbine.now)
