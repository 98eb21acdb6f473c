"""Integration tests for Task Managers + Shard Manager + platform wiring.

These exercise the paper's section IV end to end: two-level scheduling,
shard movement, heartbeat failover (40 s connection timeout vs 60 s
fail-over), degraded modes, and the no-duplicate / no-loss invariants.
"""

import pytest

from repro import JobSpec, PlatformConfig, Turbine


def small_platform(num_hosts=3, num_shards=16, seed=7, **config_overrides):
    config = PlatformConfig(num_shards=num_shards, containers_per_host=2)
    for key, value in config_overrides.items():
        setattr(config, key, value)
    platform = Turbine.create(num_hosts=num_hosts, seed=seed, config=config)
    platform.start()
    return platform


def provision_and_settle(platform, spec, settle=300.0):
    platform.provision(spec)
    platform.run_for(seconds=settle)


class TestScheduling:
    def test_tasks_start_within_two_minutes(self):
        """End-to-end scheduling is 1–2 minutes on average (section IV-D)."""
        platform = small_platform()
        platform.provision(
            JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.run_for(seconds=150.0)
        assert len(platform.tasks_of_job("job")) == 4

    def test_no_duplicate_tasks(self):
        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        tasks = platform.running_tasks()
        assert len(tasks) == len(set(tasks)) == 8

    def test_tasks_spread_across_containers(self):
        platform = small_platform(num_hosts=4, num_shards=64)
        provision_and_settle(
            platform,
            JobSpec(job_id="job", input_category="cat", task_count=32),
        )
        owners = {
            manager.container_id
            for manager in platform.task_managers.values()
            if manager.running_task_ids()
        }
        assert len(owners) >= 4, "32 tasks should land on several containers"

    def test_data_is_processed(self):
        platform = small_platform()
        provision_and_settle(
            platform,
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=10.0),
        )
        platform.scribe.get_category("cat").append(50.0)
        platform.run_for(minutes=5)
        assert platform.job_lag_mb("job") == pytest.approx(0.0, abs=1e-6)

    def test_parallelism_change_restarts_with_new_count(self):
        from repro.jobs import ConfigLevel

        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.job_service.patch("job", ConfigLevel.SCALER, {"task_count": 8})
        platform.run_for(minutes=4)
        assert len(platform.tasks_of_job("job")) == 8

    def test_package_release_restarts_tasks_in_place(self):
        from repro.jobs import ConfigLevel

        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.job_service.patch(
            "job", ConfigLevel.PROVISIONER,
            {"package": {"name": "stream_engine", "version": "2.0"}},
        )
        platform.run_for(minutes=4)
        versions = {
            task.spec.package_version
            for manager in platform.task_managers.values()
            for task in manager.tasks.values()
            if task.spec.job_id == "job"
        }
        assert versions == {"2.0"}

    def test_job_stop_removes_tasks(self):
        from repro.types import JobState

        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.job_store.set_state("job", JobState.STOPPED)
        platform.actuator.stop_tasks("job")
        platform.run_for(minutes=3)
        assert platform.tasks_of_job("job") == []


class TestFailover:
    def test_host_failure_moves_tasks(self):
        platform = small_platform(num_hosts=3)
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        assert len(platform.tasks_of_job("job")) == 8
        platform.cluster.fail_host("host-0")
        # Heartbeats go stale after 60 s; fail-over plus restart within ~2 min.
        platform.run_for(minutes=4)
        assert len(platform.tasks_of_job("job")) == 8
        for manager in platform.task_managers.values():
            assert manager.container.host_id != "host-0"

    def test_failover_event_recorded(self):
        platform = small_platform(num_hosts=3)
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.cluster.fail_host("host-1")
        platform.run_for(minutes=3)
        assert platform.shard_manager.failover_events, "failover must fire"

    @staticmethod
    def partition_and_sample():
        """Partition one busy manager for 5 min; return it, the platform
        and how many 1 s samples saw a task id in two containers."""
        from repro.chaos import ConvergenceChecker

        platform = small_platform(num_hosts=3)
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        victim = next(
            manager for manager in platform.task_managers.values()
            if manager.running_task_ids()
        )
        checker = ConvergenceChecker(platform)
        victim.partitioned = True
        duplicated = 0
        for __ in range(300):
            platform.run_for(seconds=1.0)
            duplicated += bool(checker.check().duplicates)
        return platform, victim, duplicated

    def test_partitioned_manager_reboots_before_failover(self):
        """The 40 s connection timeout fires before the 60 s fail-over,
        so no duplicate tasks can exist (section IV-C)."""
        platform, victim, duplicated = self.partition_and_sample()
        assert victim.reboot_count >= 1
        assert duplicated == 0, "no duplicates at any point"
        assert len(platform.tasks_of_job("job")) == 8

    def test_timeout_past_failover_duplicates_tasks(self, monkeypatch):
        """The same partition with the timeout at 90 s, past the 60 s
        fail-over: the victim's tasks run on while its shards restart
        elsewhere, which is the split brain the 40 s value prevents."""
        import repro.tasks.manager as manager_module

        monkeypatch.setattr(manager_module, "CONNECTION_TIMEOUT", 90.0)
        __, victim, duplicated = self.partition_and_sample()
        assert duplicated > 0
        assert victim.reboot_count >= 1

    def test_short_partition_keeps_shards(self):
        """A connection blip shorter than the timeout changes nothing."""
        platform = small_platform(num_hosts=3)
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        victim = next(
            manager for manager in platform.task_managers.values()
            if manager.assigned_shards
        )
        shards_before = set(victim.assigned_shards)
        victim.partitioned = True
        platform.run_for(seconds=30.0)  # under the 40 s timeout
        victim.partitioned = False
        platform.run_for(minutes=2)
        assert victim.reboot_count == 0
        assert victim.assigned_shards == shards_before

    def test_recovered_host_rejoins_and_gets_load(self):
        platform = small_platform(num_hosts=3, num_shards=32)
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=16)
        )
        platform.cluster.fail_host("host-0")
        platform.run_for(minutes=3)
        platform.recover_host("host-0")
        # The next rebalance (30 min default) spreads shards back.
        platform.run_for(minutes=35)
        recovered_managers = [
            manager for manager in platform.task_managers.values()
            if manager.container.host_id == "host-0"
        ]
        assert recovered_managers
        assert any(m.assigned_shards for m in recovered_managers)


class TestDegradedModes:
    def test_task_service_down_tasks_keep_running(self):
        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.task_service.available = False
        platform.run_for(minutes=10)
        assert len(platform.tasks_of_job("job")) == 4

    def test_shard_manager_down_tasks_keep_running(self):
        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.shard_manager.available = False
        # A Shard Manager *outage* is announced (ServiceUnavailableError),
        # so managers keep their shards and tasks — no reboot clock runs
        # (paper IV-C: "containers continue running tasks").
        platform.run_for(minutes=2)
        platform.shard_manager.available = True
        platform.run_for(minutes=3)
        assert len(platform.tasks_of_job("job")) == 4

    def test_shard_manager_outage_nonfatal_heartbeats(self):
        """Regression: heartbeat failures against a *down* Shard Manager
        must be non-fatal. Managers keep shards through an outage far
        longer than the 40 s connection timeout, never reboot, and the
        recovery grace period prevents spurious mass fail-over."""
        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        shards_before = {
            cid: set(m.assigned_shards)
            for cid, m in platform.task_managers.items()
        }
        platform.shard_manager.fail()
        platform.run_for(minutes=10)  # 15x the connection timeout
        assert len(platform.tasks_of_job("job")) == 4, (
            "tasks must keep running through a Shard Manager outage"
        )
        assert all(
            m.reboot_count == 0 for m in platform.task_managers.values()
        ), "an announced outage must not start the reboot clock"
        assert {
            cid: set(m.assigned_shards)
            for cid, m in platform.task_managers.items()
        } == shards_before
        platform.shard_manager.recover()
        platform.run_for(minutes=3)
        assert not platform.shard_manager.failover_events, (
            "recovery grace must prevent spurious fail-over of live "
            "containers whose heartbeats were blocked by the outage"
        )
        assert len(platform.tasks_of_job("job")) == 4

    def test_unregistered_heartbeat_still_runs_reboot_clock(self):
        """The other half of the split: a *connection*-level failure
        (manager unknown to a live Shard Manager) still reboots after
        the 40 s timeout — the IV-C protocol is unchanged."""
        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        victim = next(
            manager for manager in platform.task_managers.values()
            if manager.running_task_ids()
        )
        victim.partitioned = True
        platform.run_for(minutes=5)
        assert victim.reboot_count >= 1

    def test_job_admission_halt_leaves_running_jobs(self):
        from repro.errors import DegradedModeError

        platform = small_platform()
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=4)
        )
        platform.job_service.admitting = False
        with pytest.raises(DegradedModeError):
            platform.provision(JobSpec(job_id="new", input_category="x"))
        platform.run_for(minutes=2)
        assert len(platform.tasks_of_job("job")) == 4


class TestRecoveryWindow:
    """``_failed_at`` stamps belong to a hosted id and leave with it.

    Regression: no exit dropped the stamp, so a task that failed and was
    moved away before its first progress sample left it behind, and a
    later incarnation of the same id on that manager closed a recovery
    window it never opened — a ``recovery_lag`` sample of ``now − stale
    stamp`` for a task that never failed.
    """

    TASK_ID = "job:0"

    def hosted(self, **spec_overrides):
        platform = small_platform()
        provision_and_settle(platform, JobSpec(
            job_id="job", input_category="cat", task_count=1,
            **spec_overrides,
        ))
        owner = next(
            manager for manager in platform.task_managers.values()
            if self.TASK_ID in manager.tasks
        )
        return platform, owner, owner.tasks[self.TASK_ID].shard_id

    def make_progress(self, platform):
        platform.scribe.get_category("cat").append(20.0)
        platform.run_for(minutes=1)

    def test_noted_failure_leaves_with_the_dropped_shard(self):
        platform, owner, shard = self.hosted()
        owner.note_task_failure(self.TASK_ID, platform.now)
        self.check_reincarnation_inherits_nothing(platform, owner, shard)

    def test_oom_window_leaves_with_the_dropped_shard(self):
        from repro.jobs import ConfigLevel

        # 0.4 GB floor + 0.2 GB overhead > the 0.5 GB reservation: the
        # task OOMs on every step, and with no input it never makes the
        # progress that would close the window.
        platform, owner, shard = self.hosted(memory_overhead_gb=0.2)
        assert owner.oom_events > 0
        assert self.TASK_ID in owner._failed_at
        self.check_reincarnation_inherits_nothing(
            platform, owner, shard,
            # The oncall fixes the job while it is away, so the next
            # incarnation is healthy.
            meanwhile=lambda: platform.job_service.patch(
                "job", ConfigLevel.ONCALL, {"memory_overhead_gb": 0.0}
            ),
        )

    def check_reincarnation_inherits_nothing(
        self, platform, owner, shard, meanwhile=lambda: None
    ):
        owner.drop_shard(shard)  # before any progress sample
        assert owner._failed_at == {}
        meanwhile()
        platform.run_for(minutes=30)
        assert self.TASK_ID not in owner.tasks
        ooms = owner.oom_events
        owner.add_shard(shard)
        self.make_progress(platform)
        assert owner.tasks[self.TASK_ID].total_processed_mb > 0
        assert owner.oom_events == ooms
        # The new incarnation never failed: no window to close.
        assert platform.metrics.latest("job", "recovery_lag") is None
        assert owner._failed_at == {}

    def test_oom_does_not_close_its_own_window(self):
        """Regression: the OOM handler stamped the failure and restarted
        the task, and the same tick then took the *crashing* step's rate
        as the first post-recovery progress sample — ``recovery_lag = 0``
        for a task with 50 s of state restore still ahead of it."""
        from repro import ResourceVector

        # 40 M keys: 10 GB of state (50 s to restore) and 10.4 GB of
        # memory at rest, so anything over 20 MB/s breaks the reservation.
        platform, owner, __ = self.hosted(
            stateful=True, state_key_cardinality=40_000_000,
            rate_per_thread_mb=100.0,
            resources_per_task=ResourceVector(cpu=1.0, memory_gb=10.5),
        )
        task = owner.tasks[self.TASK_ID]
        assert not task.restoring and owner.oom_events == 0
        # One tick at the full 100 MB/s (OOM), 150 MB left for afterwards.
        platform.scribe.get_category("cat").append(1150.0)
        crashed_at = platform.now
        while owner.oom_events == 0 and platform.now < crashed_at + 30.0:
            platform.run_for(seconds=1)
        assert owner.oom_events == 1
        assert task.restoring
        assert platform.metrics.latest("job", "recovery_lag") is None
        assert self.TASK_ID in owner._failed_at
        platform.run_for(seconds=90)
        assert not task.restoring and owner.oom_events == 1
        lag = platform.metrics.latest("job", "recovery_lag")
        assert lag is not None and lag >= 50.0
        assert owner._failed_at == {}

    @pytest.mark.parametrize("exit_name", [
        "stop_job_tasks", "shutdown", "reboot", "force_kill_shard",
    ])
    def test_every_way_out_drops_the_stamp(self, exit_name):
        platform, owner, shard = self.hosted()
        owner.note_task_failure(self.TASK_ID, platform.now)
        argument = {"stop_job_tasks": ["job"], "force_kill_shard": [shard]}
        getattr(owner, exit_name)(*argument.get(exit_name, []))
        assert self.TASK_ID not in owner.tasks
        assert owner._failed_at == {}

    def test_dropped_standby_takes_its_stamp_along(self):
        from repro.tasks.runtime import RunningTask

        platform, owner, __ = self.hosted()
        other = next(
            manager for manager in platform.task_managers.values()
            if manager is not owner
        )
        other.adopt_standby(RunningTask(
            owner.tasks[self.TASK_ID].spec, platform.scribe, passive=True
        ))
        other.note_task_failure(self.TASK_ID, platform.now)
        assert other.drop_standby(self.TASK_ID) is not None
        assert other._failed_at == {}

    def test_restart_in_place_still_closes_the_window_it_inherited(self):
        from repro.jobs import ConfigLevel

        platform, owner, __ = self.hosted()
        before = owner.tasks[self.TASK_ID]
        failed_at = platform.now
        owner.note_task_failure(self.TASK_ID, failed_at)
        platform.job_service.patch(
            "job", ConfigLevel.PROVISIONER,
            {"package": {"name": "stream_engine", "version": "2.0"}},
        )
        platform.run_for(minutes=4)
        restarted = owner.tasks[self.TASK_ID]
        assert restarted is not before
        assert restarted.spec.package_version == "2.0"
        # Same id, same manager, still recovering: the window stays open …
        assert owner._failed_at == {self.TASK_ID: failed_at}
        self.make_progress(platform)
        # … and the restarted task's first progress sample closes it.
        lag = platform.metrics.latest("job", "recovery_lag")
        assert lag is not None and failed_at + lag <= platform.now
        assert lag >= 240.0
        assert owner._failed_at == {}


class TestShardMovement:
    def test_drop_timeout_triggers_force_kill(self):
        platform = small_platform(num_hosts=2, num_shards=8)
        provision_and_settle(
            platform, JobSpec(job_id="job", input_category="cat", task_count=8)
        )
        victim = next(
            manager for manager in platform.task_managers.values()
            if manager.assigned_shards
        )
        victim.slow_drop = True
        shard = sorted(victim.assigned_shards)[0]
        destination = next(
            manager for manager in platform.task_managers.values()
            if manager is not victim
        )
        platform.shard_manager._move_shard(
            shard, victim.container_id, destination.container_id
        )
        assert shard not in victim.assigned_shards, "force-killed"
        assert shard in destination.assigned_shards

    def test_load_reports_reach_shard_manager(self):
        platform = small_platform()
        provision_and_settle(
            platform,
            JobSpec(job_id="job", input_category="cat", task_count=4,
                    rate_per_thread_mb=5.0),
        )
        # Generate sustained traffic so loads are non-trivial.
        for __ in range(12):
            platform.scribe.get_category("cat").append(60.0)
            platform.run_for(minutes=1)
        platform.run_for(minutes=11)  # past a 10-minute report interval
        assert platform.shard_manager.shard_loads, "loads must be reported"


class TestStatsCollection:
    def test_job_metrics_recorded(self):
        platform = small_platform()
        provision_and_settle(
            platform,
            JobSpec(job_id="job", input_category="cat", task_count=2,
                    rate_per_thread_mb=5.0),
        )
        for __ in range(5):
            platform.scribe.get_category("cat").append(30.0)
            platform.run_for(minutes=1)
        metrics = platform.metrics
        assert metrics.latest("job", "input_rate_mb") > 0
        assert metrics.latest("job", "processing_rate_mb") > 0
        assert metrics.latest("job", "running_tasks") == 2.0
        assert metrics.latest("job", "time_lagged") is not None

    def test_lag_metric_reflects_backlog(self):
        platform = small_platform()
        provision_and_settle(
            platform,
            JobSpec(job_id="job", input_category="cat", task_count=1,
                    rate_per_thread_mb=1.0),
        )
        platform.scribe.get_category("cat").append(3600.0)  # 1 h of work
        platform.run_for(minutes=3)
        assert platform.metrics.latest("job", "time_lagged") > 90.0
