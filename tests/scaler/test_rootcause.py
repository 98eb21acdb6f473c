"""Tests for the automatic root-cause analyzer (section V-D taxonomy)."""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.jobs import ConfigLevel
from repro.scaler.rootcause import Cause, RootCauseAnalyzer
from repro.types import JobState
from repro.workloads import TrafficDriver


def build(num_jobs=4, seed=31):
    platform = Turbine.create(
        num_hosts=3, seed=seed,
        config=PlatformConfig(num_shards=32, containers_per_host=2),
    )
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for index in range(num_jobs):
        platform.provision(
            JobSpec(job_id=f"job-{index}", input_category=f"cat-{index}",
                    task_count=4, rate_per_thread_mb=4.0),
        )
        driver.add_source(f"cat-{index}", lambda t: 4.0)
    driver.start()
    analyzer = RootCauseAnalyzer(
        platform.job_service, platform.shard_manager, platform.metrics
    )
    platform.run_for(minutes=5)
    analyzer.observe_configs(platform.now)
    platform.run_for(minutes=35)  # past the "recent update" window
    return platform, analyzer


def stall_one_task(platform, job_id):
    for manager in platform.task_managers.values():
        for task in manager.tasks.values():
            if task.spec.job_id == job_id:
                task.stop()
                return task.spec.task_id
    raise AssertionError("no task found")


class TestDiagnosis:
    def test_single_stalled_task_blamed_on_hardware(self):
        platform, analyzer = build()
        suspect = stall_one_task(platform, "job-0")
        platform.run_for(minutes=5)
        diagnosis = analyzer.diagnose("job-0", platform.now)
        assert diagnosis.cause == Cause.SINGLE_TASK_HARDWARE
        assert diagnosis.suspect_task == suspect

    def test_recent_package_change_blamed_on_update(self):
        platform, analyzer = build()
        analyzer.observe_configs(platform.now)
        platform.job_service.patch(
            "job-1", ConfigLevel.PROVISIONER,
            {"package": {"name": "stream_engine", "version": "2.0-bad"}},
        )
        platform.run_for(minutes=5)
        analyzer.observe_configs(platform.now)
        platform.run_for(minutes=5)
        diagnosis = analyzer.diagnose("job-1", platform.now)
        assert diagnosis.cause == Cause.BAD_USER_UPDATE
        assert "2.0-bad" in diagnosis.evidence

    def test_cluster_wide_lag_blamed_on_dependency(self):
        platform, analyzer = build()
        # Everything stalls at once — the downstream-dependency signature.
        for manager in platform.task_managers.values():
            for task in manager.tasks.values():
                task.stop()
        platform.run_for(minutes=10)
        diagnosis = analyzer.diagnose("job-2", platform.now)
        assert diagnosis.cause == Cause.DEPENDENCY_FAILURE

    def test_no_signature_is_unknown(self):
        platform, analyzer = build()
        diagnosis = analyzer.diagnose("job-3", platform.now)
        assert diagnosis.cause == Cause.UNKNOWN

    def test_provisioning_is_not_an_update(self):
        platform, analyzer = build()
        diagnosis = analyzer.diagnose("job-0", platform.now)
        assert diagnosis.cause != Cause.BAD_USER_UPDATE

    def test_reprovisioning_a_deleted_id_is_not_an_update_either(self):
        """The stamp of a deleted job goes at the next observation, so a
        job provisioned under its id at another version is a first
        sight — while a quarantined job (live, not active) keeps its."""
        platform, analyzer = build()
        platform.job_store.set_state("job-1", JobState.QUARANTINED)
        platform.deprovision("job-0")
        analyzer.observe_configs(platform.now)
        assert set(analyzer._package_seen) == {"job-1", "job-2", "job-3"}
        platform.provision(JobSpec(
            job_id="job-0", input_category="cat-0", task_count=4,
            rate_per_thread_mb=4.0, package_version="2.0",
        ))
        analyzer.observe_configs(platform.now)
        assert not analyzer._recently_updated("job-0", platform.now)


class TestMitigation:
    def test_hardware_diagnosis_moves_the_shard(self):
        platform, analyzer = build()
        suspect = stall_one_task(platform, "job-0")
        platform.run_for(minutes=5)
        diagnosis = analyzer.diagnose("job-0", platform.now)
        source = platform.shard_manager.assignment.get(
            __import__("repro.tasks.shard", fromlist=["shard_id_for_task"])
            .shard_id_for_task(suspect, platform.shard_manager.num_shards)
        )
        assert analyzer.mitigate(diagnosis)
        assert diagnosis.mitigated
        from repro.tasks.shard import shard_id_for_task

        new_owner = platform.shard_manager.assignment[
            shard_id_for_task(suspect, platform.shard_manager.num_shards)
        ]
        assert new_owner != source
        # The restarted task processes again.
        platform.run_for(minutes=5)
        tasks = platform.tasks_of_job("job-0")
        assert suspect in tasks

    def test_bad_update_mitigation_raises_limit(self):
        platform, analyzer = build()
        analyzer.observe_configs(platform.now)
        platform.job_service.patch(
            "job-1", ConfigLevel.PROVISIONER,
            {"package": {"name": "stream_engine", "version": "2.0-bad"}},
        )
        platform.run_for(minutes=2)
        analyzer.observe_configs(platform.now)
        diagnosis = analyzer.diagnose("job-1", platform.now)
        assert analyzer.mitigate(diagnosis)
        config = platform.job_service.expected_config("job-1")
        assert config["task_count_limit"] == 128

    def test_dependency_failure_not_mitigated(self):
        """"allocating more resources does not help in the case of
        dependency failures" — the analyzer must refuse to act."""
        platform, analyzer = build()
        for manager in platform.task_managers.values():
            for task in manager.tasks.values():
                task.stop()
        platform.run_for(minutes=10)
        before = platform.job_service.expected_config("job-2")
        diagnosis = analyzer.diagnose("job-2", platform.now)
        assert not analyzer.mitigate(diagnosis)
        assert diagnosis.mitigation == "alert operator"
        assert platform.job_service.expected_config("job-2") == before
