"""The heartbeat round: one platform ``container-heartbeat`` timer.

``Turbine.start()`` arms one timer that heartbeats every Task Manager in
spawn order (:func:`repro.tasks.manager.heartbeat_managers`), after the
managers' own timers and before every control-plane timer. A manager
hot-added mid-run joins the round at the platform's phase; a failed
host's managers leave it. A spawn costs the same at any fleet size. Also
the reconnect loop of a container that stays partitioned: one reboot,
one loop.
"""

import sys

from repro import JobSpec, PlatformConfig, Turbine
from repro.sim.engine import Timer
from repro.tasks.manager import HEARTBEAT_INTERVAL, TaskManager

SM_CALLS = "resilience.task-manager.shard-manager.calls"


def platform(num_hosts=2, seed=5):
    turbine = Turbine.create(
        num_hosts=num_hosts, seed=seed,
        config=PlatformConfig(num_shards=8, containers_per_host=2),
    )
    turbine.start()
    return turbine


def armed_timers(turbine):
    """The timers armed on ``turbine``'s engine, in arming order."""
    entries = sorted(
        (seq, event.callback.__self__)
        for __, seq, event in turbine.engine.queue._heap
        if not event.cancelled
        and isinstance(getattr(event.callback, "__self__", None), Timer)
    )
    return [timer for __, timer in entries]


def record_heartbeats(turbine):
    """Log ``(time, container id)`` for every heartbeat the Shard Manager
    records from now on, in the order it records them: every entry point
    writes its clock through the one dict."""
    log = []

    class Logged(dict):
        def __setitem__(self, container_id, now):
            log.append((now, container_id))
            super().__setitem__(container_id, now)

    shard_manager = turbine.shard_manager
    shard_manager._heartbeats = Logged(shard_manager._heartbeats)
    return log


def managers_on(turbine, host_id):
    return [
        manager.container_id for manager in turbine.task_managers.values()
        if manager.container.host_id == host_id
    ]


def rounds(turbine, *times):
    """The log of rounds at ``times`` over today's fleet, in spawn order."""
    return [(at, cid) for at in times for cid in turbine.task_managers]


class TestRound:
    def test_one_timer_armed_before_the_control_plane(self):
        turbine = Turbine.create(num_hosts=3, seed=5, config=PlatformConfig(
            num_shards=8, containers_per_host=2, durable_checkpoints=True,
            hot_standby=True, slow_node_detection=True,
        ))
        turbine.attach_scaler()
        turbine.attach_slo()
        turbine.start()
        names = [timer.name for timer in armed_timers(turbine)]
        assert names.count("container-heartbeat") == 1
        at = names.index("container-heartbeat")
        per_manager = {
            f"{cid}-{kind}" for cid in turbine.task_managers
            for kind in ("refresh", "load-report")
        }
        assert set(names[:at]) == per_manager
        after = names[at + 1:]
        assert not per_manager & set(after)
        assert {
            "shard-manager-failover", "state-syncer", "job-stats",
            "auto-scaler", "slo-tracker", "checkpoint-plane",
            "standby-plane", "slow-node-detector",
        } <= set(after)
        assert after[-1] == "data-plane-step"

    def test_hot_added_managers_heartbeat_at_the_platforms_phase(self):
        """A manager spawned mid-run heartbeats in the platform's round,
        after the older managers (a timer of its own would fire at
        13 / 23 s)."""
        turbine = platform(num_hosts=3)
        turbine.run_for(seconds=3.0)
        turbine.add_host("late-host")
        turbine.cluster.fail_host("host-1")
        turbine.recover_host("host-1")
        assert managers_on(turbine, "late-host") and managers_on(turbine, "host-1")
        assert list(turbine.task_managers)[-2:] == managers_on(turbine, "host-1")
        log = record_heartbeats(turbine)
        turbine.run_for(seconds=2 * HEARTBEAT_INTERVAL)
        assert log == rounds(turbine, 10.0, 20.0)

    def test_a_failed_hosts_managers_leave_the_round(self):
        turbine = platform(num_hosts=3)
        turbine.run_for(seconds=3.0)
        gone = managers_on(turbine, "host-1")
        turbine.cluster.fail_host("host-1")
        log = record_heartbeats(turbine)
        turbine.run_for(seconds=2 * HEARTBEAT_INTERVAL)
        assert log == rounds(turbine, 10.0, 20.0)
        assert len(turbine.task_managers) == 4
        assert not set(gone) & set(turbine.task_managers)

    def test_a_quiet_round_reads_no_container_id(self, monkeypatch):
        """The round hands the Shard Manager the platform's ``container
        id -> manager`` mapping, so a round that delivers every heartbeat
        reads no manager's ``container_id``."""
        turbine = platform(num_hosts=3)
        turbine.run_for(seconds=5.0)
        [timer] = [
            timer for timer in armed_timers(turbine)
            if timer.name == "container-heartbeat"
        ]
        reads = []
        container_id = TaskManager.container_id.fget

        def counted(manager):
            reads.append(manager.container.container_id)
            return container_id(manager)

        monkeypatch.setattr(TaskManager, "container_id", property(counted))
        log = record_heartbeats(turbine)
        timer._callback()
        assert log == rounds(turbine, 5.0)
        assert reads == []


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


class TestSpawnCost:
    @staticmethod
    def lines_per_spawn(num_hosts):
        """Start ``4 × num_hosts`` managers, then count the lines one more
        ``_spawn_manager`` runs."""
        turbine = Turbine.create(
            num_hosts=num_hosts, seed=3,
            config=PlatformConfig(num_shards=8, containers_per_host=4),
        )
        turbine.start()
        turbine.cluster.add_host("extra")
        container = turbine.cluster.allocate_container(
            "extra", turbine.config.container_capacity
        )
        return lines_run(lambda: turbine._spawn_manager(container))

    def test_a_spawn_runs_as_many_lines_at_any_fleet_size(self):
        """A spawn that walks anything fleet-sized (a scan of the queued
        refreshes for a heartbeat phase once did) makes starting N
        managers O(N²)."""
        assert self.lines_per_spawn(64) == self.lines_per_spawn(256)


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


def log_attempts(monkeypatch, turbine, manager):
    """Log the time of every reconnect attempt of ``manager``. The loop
    arms ``manager._try_reconnect``; a manager is slotted, so the patch
    is on the class for the test's duration."""
    attempts = []
    attempt = TaskManager._try_reconnect

    def logged(self):
        if self is manager:
            attempts.append(turbine.now)
        attempt(self)

    monkeypatch.setattr(TaskManager, "_try_reconnect", logged)
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

    def test_while_partitioned(self, monkeypatch):
        turbine = platform(num_hosts=3)
        turbine.provision(
            JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        turbine.run_for(minutes=5)
        victim = next(
            manager for manager in turbine.task_managers.values()
            if manager.running_task_ids()
        )
        attempts = log_attempts(monkeypatch, turbine, victim)
        registered = log_registrations(turbine)
        victim.partitioned = True
        turbine.run_for(minutes=10)
        assert victim.reboot_count == 1
        assert len(attempts) >= 50
        turbine.run_for(seconds=3.0)  # heal off the attempts' phase
        victim.partitioned = False
        self.assert_cadence(turbine, victim, attempts, registered, turbine.now)

    def test_while_the_shard_manager_is_down(self, monkeypatch):
        turbine = platform(num_hosts=3)
        turbine.run_for(minutes=5)
        victim = next(iter(turbine.task_managers.values()))
        attempts = log_attempts(monkeypatch, turbine, victim)
        registered = log_registrations(turbine)
        turbine.shard_manager.fail()
        victim.reboot()
        turbine.run_for(minutes=5, seconds=3.0)
        assert len(attempts) == 31  # one at the reboot, then every 10 s
        turbine.shard_manager.recover()
        self.assert_cadence(turbine, victim, attempts, registered, turbine.now)
