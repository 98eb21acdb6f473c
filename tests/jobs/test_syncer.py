"""Tests for the State Syncer: ACIDF semantics, batching, quarantine."""

import pytest

import repro.jobs.syncer as syncer_module
from repro.errors import SyncError
from repro.jobs import (
    ConfigLevel,
    JobService,
    JobSpec,
    JobStore,
    StateSyncer,
)
from repro.sim import Engine
from repro.testing import NullActuator, RecordingActuator
from repro.types import JobState


def make_setup(task_count=4):
    store = JobStore()
    service = JobService(store)
    service.provision(
        JobSpec(job_id="job", input_category="cat", task_count=task_count)
    )
    actuator = RecordingActuator()
    syncer = StateSyncer(store, actuator)
    return store, service, actuator, syncer


class TestPlanSelection:
    def test_first_sync_is_complex(self):
        """Initial provisioning sets task_count from nothing — that is a
        parallelism change, so the first sync is a complex one."""
        store, service, actuator, syncer = make_setup()
        report = syncer.sync_once()
        assert report.complex_synced == ["job"]
        ops = [call[0] for call in actuator.calls]
        assert ops == ["stop_tasks", "redistribute_checkpoints", "start_tasks"]

    def test_no_difference_no_plan(self):
        store, service, actuator, syncer = make_setup()
        syncer.sync_once()
        actuator.calls.clear()
        report = syncer.sync_once()
        assert report.total_synced == 0
        assert actuator.calls == []

    def test_package_release_is_simple_sync(self):
        store, service, actuator, syncer = make_setup()
        syncer.sync_once()
        actuator.calls.clear()
        service.patch(
            "job", ConfigLevel.PROVISIONER,
            {"package": {"name": "stream_engine", "version": "2.0"}},
        )
        report = syncer.sync_once()
        assert report.simple_synced == ["job"]
        assert actuator.calls == [("apply_settings", "job")]

    def test_parallelism_change_is_complex_sync(self):
        store, service, actuator, syncer = make_setup(task_count=4)
        syncer.sync_once()
        actuator.calls.clear()
        service.patch("job", ConfigLevel.SCALER, {"task_count": 8})
        report = syncer.sync_once()
        assert report.complex_synced == ["job"]
        assert ("redistribute_checkpoints", "job", 4, 8) in actuator.calls
        # Phases in the paper's order: stop, redistribute, start.
        ops = [call[0] for call in actuator.calls]
        assert ops == ["stop_tasks", "redistribute_checkpoints", "start_tasks"]
        assert ("start_tasks", "job", 8) in actuator.calls


class TestAtomicity:
    def test_running_config_unchanged_on_failure(self):
        store, service, actuator, syncer = make_setup()
        actuator.fail_on.add("start_tasks")
        report = syncer.sync_once()
        assert report.failed == ["job"]
        assert store.read_running("job").config == {}, (
            "commit must not happen when the plan fails part-way"
        )

    def test_commit_after_success(self):
        store, service, actuator, syncer = make_setup()
        syncer.sync_once()
        running = store.read_running("job").config
        assert running["task_count"] == 4


class TestFaultTolerance:
    def test_failed_plan_retried_next_round(self):
        store, service, actuator, syncer = make_setup()
        actuator.fail_on.add("start_tasks")
        syncer.sync_once()
        actuator.fail_on.clear()
        report = syncer.sync_once()
        assert report.complex_synced == ["job"]
        assert store.read_running("job").config["task_count"] == 4

    def test_repeated_failures_quarantine_job(self):
        store, service, actuator, syncer = make_setup()
        actuator.fail_on.add("stop_tasks")
        quarantined = []
        syncer.on_quarantine.append(lambda job_id, reason: quarantined.append(job_id))
        for __ in range(3):
            syncer.sync_once()
        assert store.state_of("job") == JobState.QUARANTINED
        assert quarantined == ["job"]
        assert len(syncer.alerts) == 1

    def test_quarantined_job_skipped(self):
        store, service, actuator, syncer = make_setup()
        actuator.fail_on.add("stop_tasks")
        for __ in range(3):
            syncer.sync_once()
        actuator.calls.clear()
        report = syncer.sync_once()
        assert report.total_synced == 0
        assert actuator.calls == []

    def test_release_quarantine_resumes_sync(self):
        store, service, actuator, syncer = make_setup()
        actuator.fail_on.add("stop_tasks")
        for __ in range(3):
            syncer.sync_once()
        actuator.fail_on.clear()
        syncer.release_quarantine("job")
        report = syncer.sync_once()
        assert report.complex_synced == ["job"]
        assert syncer.failure_count("job") == 0

    def test_release_non_quarantined_rejected(self):
        store, service, actuator, syncer = make_setup()
        with pytest.raises(SyncError):
            syncer.release_quarantine("job")

    def test_success_resets_failure_count(self):
        store, service, actuator, syncer = make_setup()
        actuator.fail_on.add("stop_tasks")
        syncer.sync_once()
        syncer.sync_once()
        assert syncer.failure_count("job") == 2
        actuator.fail_on.clear()
        syncer.sync_once()
        assert syncer.failure_count("job") == 0

    @pytest.mark.parametrize("full_scan_interval", [1, 20])
    def test_failure_streak_and_dirty_flag_die_with_the_job(
        self, full_scan_interval, monkeypatch
    ):
        """A job provisioned under a deleted id starts with a clean
        record — whether the syncer learns of the delete from its feed
        or from a full scan (which discards the feed's deltas)."""
        store = JobStore()
        service = JobService(store)
        spec = JobSpec(job_id="job", input_category="cat", task_count=4)
        service.provision(spec)
        actuator = RecordingActuator()
        monkeypatch.setattr(
            syncer_module, "FULL_SCAN_INTERVAL", full_scan_interval
        )
        syncer = StateSyncer(store, actuator)
        actuator.fail_on.add("start_tasks")
        syncer.sync_once()
        syncer.sync_once()
        assert syncer.failure_count("job") == 2 and store.is_dirty("job")
        service.deprovision("job")
        assert store._dirty == set()
        syncer.sync_once()
        assert syncer.failure_count("job") == 0
        service.provision(spec)
        report = syncer.sync_once()  # the new job's first failed plan
        assert report.failed == ["job"] and report.quarantined == []
        assert store.state_of("job") == JobState.RUNNING
        # Deleted and re-created between two rounds, the id never looks
        # gone to the feed: the eager reclaim has to tell the syncer.
        assert syncer.failure_count("job") == 1
        service.deprovision("job")
        syncer.forget_job("job")
        service.provision(spec)
        assert syncer.failure_count("job") == 0 and not syncer.held_jobs()


class TestTornPlanRecovery:
    def test_reverted_expected_still_resyncs_after_failure(self):
        """A plan that fails after stopping tasks leaves reality torn; if
        the expected config is then reverted to match the stale running
        config, the syncer must still resynchronize (dirty tracking)."""
        store, service, actuator, syncer = make_setup(task_count=4)
        syncer.sync_once()  # healthy initial state, running == expected

        # An update arrives and its plan fails *after* stop_tasks ran.
        service.patch("job", ConfigLevel.ONCALL, {"task_count": 8})
        actuator.fail_on.add("start_tasks")
        syncer.sync_once()
        assert store.is_dirty("job")
        stops_so_far = [c for c in actuator.calls if c[0] == "stop_tasks"]

        # The oncall reverts the update: expected == running again.
        actuator.fail_on.clear()
        service.clear_level("job", ConfigLevel.ONCALL)
        report = syncer.sync_once()
        assert report.complex_synced == ["job"], (
            "dirty job must fully resync despite zero config diff"
        )
        assert not store.is_dirty("job")
        restarts = [c for c in actuator.calls if c[0] == "start_tasks"]
        assert len(restarts) >= 1
        assert len([c for c in actuator.calls if c[0] == "stop_tasks"]) > len(
            stops_so_far
        )

    def test_dirty_survives_snapshot(self):
        store, service, actuator, syncer = make_setup()
        syncer.sync_once()
        service.patch("job", ConfigLevel.ONCALL, {"task_count": 8})
        actuator.fail_on.add("start_tasks")
        syncer.sync_once()
        restored = JobStore.load_snapshot(store.dump_snapshot())
        assert restored.is_dirty("job"), "dirtiness is durable state"

    def test_clean_job_not_marked_dirty(self):
        store, service, actuator, syncer = make_setup()
        syncer.sync_once()
        assert not store.is_dirty("job")


class TestDurability:
    def test_syncer_crash_and_restart_converges(self):
        """Durability: a brand-new syncer over the surviving store still
        drives running to expected."""
        store, service, actuator, syncer = make_setup()
        actuator.fail_on.add("start_tasks")
        syncer.sync_once()  # fails part-way; nothing committed
        # Syncer process dies; store survives (snapshot round-trip).
        restored = JobStore.load_snapshot(store.dump_snapshot())
        fresh_actuator = RecordingActuator()
        fresh_syncer = StateSyncer(restored, fresh_actuator)
        report = fresh_syncer.sync_once()
        assert report.complex_synced == ["job"]
        assert restored.read_running("job").config["task_count"] == 4


class TestPeriodicOperation:
    def test_runs_every_30_seconds(self):
        engine = Engine()
        store = JobStore()
        service = JobService(store)
        service.provision(JobSpec(job_id="job", input_category="cat"))
        actuator = RecordingActuator()
        syncer = StateSyncer(store, actuator, engine=engine)
        syncer.start()
        engine.run_until(95.0)
        assert len(syncer.rounds) == 3  # t=30, 60, 90

    def test_first_round_after_a_store_outage_runs(self):
        """Off the 30 s grid, ``fl(t + 30) - t`` can fall short of 30: a
        round guard keyed on elapsed time would skip the 90.1 s round
        even though the store is back at 75 s."""
        engine = Engine()
        engine.run_until(0.1)
        store = JobStore()
        syncer = StateSyncer(store, NullActuator(), engine=engine)
        syncer.start()
        engine.call_at(20.0, store.fail)
        engine.call_at(75.0, store.recover)
        engine.run_until(125.0)
        assert [
            (round(report.time, 6), report.skipped) for report in syncer.rounds
        ] == [(30.1, True), (60.1, True), (90.1, False), (120.1, False)]

    def test_start_without_engine_rejected(self):
        store, service, actuator, syncer = make_setup()
        with pytest.raises(SyncError):
            syncer.start()

    def test_stop_halts_rounds(self):
        engine = Engine()
        store = JobStore()
        JobService(store).provision(JobSpec(job_id="job", input_category="cat"))
        syncer = StateSyncer(store, RecordingActuator(), engine=engine)
        syncer.start()
        engine.run_until(35.0)
        syncer.stop()
        engine.run_until(300.0)
        assert len(syncer.rounds) == 1


class TestBatching:
    def test_many_simple_syncs_in_one_round(self):
        """Simple synchronization of tens of thousands of jobs happens in
        one batched round (paper section III-B); here a smaller fleet
        checks the all-at-once behaviour."""
        store = JobStore()
        service = JobService(store)
        for index in range(200):
            service.provision(
                JobSpec(job_id=f"job-{index:03d}", input_category="cat")
            )
        actuator = RecordingActuator()
        syncer = StateSyncer(store, actuator)
        syncer.sync_once()  # initial complex syncs
        # A global package release touches every job.
        for job_id in service.job_ids():
            service.patch(
                job_id, ConfigLevel.PROVISIONER,
                {"package": {"name": "stream_engine", "version": "9.9"}},
            )
        report = syncer.sync_once()
        assert len(report.simple_synced) == 200
        assert report.complex_synced == []


class TestMergeOncePerChange:
    """Algorithm 1 runs once per config change: the syncer's plan and the
    typed view share a merge, and a job unchanged since the syncer's own
    quiet commit is skipped by a full scan with no merge at all."""

    @staticmethod
    def converged_fleet(jobs=6):
        store = JobStore()
        service = JobService(store)
        for index in range(jobs):
            service.provision(
                JobSpec(job_id=f"job-{index}", input_category="cat")
            )
        syncer = StateSyncer(store, RecordingActuator())
        syncer.sync_once()  # the first round is a full scan that plans all
        return store, service, syncer

    def full_scan(self, syncer):
        syncer._rounds_since_full = syncer_module.FULL_SCAN_INTERVAL
        report = syncer.sync_once()
        assert report.full_scan
        return report

    def test_a_full_scan_over_a_converged_fleet_merges_nothing(self, count_merges):
        store, service, syncer = self.converged_fleet(jobs=6)
        merges = count_merges()
        report = self.full_scan(syncer)
        assert merges == []
        assert report.examined == 6 and report.total_synced == 0

    def test_one_merge_serves_the_plan_and_the_view(self, count_merges):
        store, service, syncer = self.converged_fleet(jobs=2)
        merges = count_merges()
        service.patch("job-0", ConfigLevel.SCALER, {"task_count": 3})
        assert store.view("job-0").task_count == 3   # merges once
        assert syncer.sync_once().complex_synced == ["job-0"]  # reuses it
        assert store.view("job-0").task_count == 3
        self.full_scan(syncer)
        assert len(merges) == 1
        # The other way round: the syncer merges, the view reuses it.
        service.patch("job-1", ConfigLevel.SCALER, {"task_count": 5})
        assert syncer.sync_once().complex_synced == ["job-1"]
        assert store.view("job-1").task_count == 5
        assert len(merges) == 2
        # No merged dict outlives the syncer's commit.
        assert all(merge.config is None for merge in store._merges.values())

    def test_only_a_quiet_commit_of_the_syncers_read_stamps(self):
        store, service, syncer = self.converged_fleet(jobs=1)
        merged = store.merged_expected("job-0")
        assert store.expected_for_sync("job-0") is None  # stamped
        # A quiet commit that realises no read of the current merge.
        store.commit_running("job-0", {"task_count": 99}, quiet=True)
        assert store.expected_for_sync("job-0") == merged
        # A read made after a notification is not what an older plan
        # committed: the merge it made stays to be planned.
        service.patch("job-0", ConfigLevel.SCALER, {"task_count": 2})
        store.view("job-0")
        store.commit_running("job-0", merged, quiet=True)
        assert store.expected_for_sync("job-0") == store.merged_expected("job-0")

    def test_a_quiet_commit_of_another_config_than_the_read_never_stamps(self):
        store, service, syncer = self.converged_fleet(jobs=1)
        service.patch("job-0", ConfigLevel.SCALER, {"task_count": 3})
        assert store.expected_for_sync("job-0")["task_count"] == 3
        store.commit_running("job-0", {"task_count": 99}, quiet=True)
        assert store.expected_for_sync("job-0") == store.merged_expected("job-0")
        assert syncer.sync_once().complex_synced == ["job-0"]
        assert store.read_running("job-0").config["task_count"] == 3

    def test_a_re_created_id_never_reuses_the_old_stamp(self):
        store, service, syncer = self.converged_fleet(jobs=1)
        old_running = store.read_running("job-0")
        assert store.expected_for_sync("job-0") is None  # stamped
        store.delete_job("job-0")
        store.create_job("job-0")
        store.write_expected("job-0", ConfigLevel.PROVISIONER, {"task_count": 9}, 0)
        # The new incarnation's running config reaches the old one's
        # version and value without a read of its own merge.
        store.commit_running("job-0", old_running.config, quiet=True)
        assert store.read_running("job-0").version == old_running.version
        assert store.expected_for_sync("job-0") == {"task_count": 9}
        report = self.full_scan(syncer)
        assert report.complex_synced == ["job-0"]
        assert store.read_running("job-0").config == {"task_count": 9}

    def test_a_takeover_never_reuses_the_old_stamp(self):
        store, service, syncer = self.converged_fleet(jobs=1)
        assert store.expected_for_sync("job-0") is None  # stamped
        # A follower with the same running version but another history.
        follower = JobStore.load_snapshot(store.dump_snapshot())
        follower.write_expected(
            "job-0", ConfigLevel.ONCALL, {"task_count": 7},
            follower.read_expected("job-0", ConfigLevel.ONCALL).version,
        )
        store.install_state(follower)
        assert store.read_running("job-0").version == 1
        report = self.full_scan(syncer)
        assert report.complex_synced == ["job-0"]
        assert store.view("job-0").task_count == 7
