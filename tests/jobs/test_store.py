"""Tests for the Job Store: versioned tables and durability snapshots."""

import pytest

from repro.errors import JobStoreError, VersionConflictError
from repro.jobs import ConfigLevel, JobStore
from repro.types import JobState


def store_with_job(job_id="job"):
    store = JobStore()
    store.create_job(job_id)
    return store


class TestLifecycle:
    def test_create_and_list(self):
        store = JobStore()
        store.create_job("b")
        store.create_job("a")
        assert store.job_ids() == ["a", "b"]
        assert store.exists("a")

    def test_duplicate_create_rejected(self):
        store = store_with_job()
        with pytest.raises(JobStoreError):
            store.create_job("job")

    def test_new_job_is_running_state(self):
        store = store_with_job()
        assert store.state_of("job") == JobState.RUNNING

    def test_delete_remembers_state(self):
        store = store_with_job()
        store.delete_job("job")
        assert not store.exists("job")
        assert store.state_of("job") == JobState.DELETED

    def test_unknown_job_rejected(self):
        store = JobStore()
        with pytest.raises(JobStoreError):
            store.read_expected("nope", ConfigLevel.BASE)
        with pytest.raises(JobStoreError):
            store.state_of("nope")


class TestExpectedConfigs:
    def test_initial_version_zero_empty(self):
        store = store_with_job()
        vc = store.read_expected("job", ConfigLevel.SCALER)
        assert vc.config == {}
        assert vc.version == 0

    def test_cas_write_succeeds_on_matching_version(self):
        store = store_with_job()
        new_version = store.write_expected(
            "job", ConfigLevel.SCALER, {"task_count": 5}, expected_version=0
        )
        assert new_version == 1
        assert store.read_expected("job", ConfigLevel.SCALER).config == {
            "task_count": 5
        }

    def test_cas_write_rejects_stale_version(self):
        """Read-modify-write consistency (paper section III-A)."""
        store = store_with_job()
        store.write_expected("job", ConfigLevel.ONCALL, {"a": 1}, 0)
        with pytest.raises(VersionConflictError):
            store.write_expected("job", ConfigLevel.ONCALL, {"a": 2}, 0)

    def test_levels_versioned_independently(self):
        store = store_with_job()
        store.write_expected("job", ConfigLevel.SCALER, {"a": 1}, 0)
        # Oncall level still at version 0.
        store.write_expected("job", ConfigLevel.ONCALL, {"b": 2}, 0)

    def test_read_returns_copy(self):
        store = store_with_job()
        store.write_expected("job", ConfigLevel.BASE, {"a": 1}, 0)
        vc = store.read_expected("job", ConfigLevel.BASE)
        vc.config["a"] = 999
        assert store.read_expected("job", ConfigLevel.BASE).config["a"] == 1

    def test_merged_expected_applies_precedence(self):
        store = store_with_job()
        store.write_expected("job", ConfigLevel.BASE, {"task_count": 1}, 0)
        store.write_expected("job", ConfigLevel.PROVISIONER, {"task_count": 10}, 0)
        store.write_expected("job", ConfigLevel.SCALER, {"task_count": 15}, 0)
        assert store.merged_expected("job")["task_count"] == 15
        store.write_expected("job", ConfigLevel.ONCALL, {"task_count": 30}, 0)
        assert store.merged_expected("job")["task_count"] == 30

    def test_invalid_config_rejected(self):
        store = store_with_job()
        with pytest.raises(JobStoreError):
            store.write_expected("job", ConfigLevel.BASE, {"x": object()}, 0)


class TestRunningConfig:
    def test_initially_empty(self):
        store = store_with_job()
        assert store.read_running("job").config == {}

    def test_commit_bumps_version(self):
        store = store_with_job()
        assert store.commit_running("job", {"task_count": 3}) == 1
        assert store.commit_running("job", {"task_count": 4}) == 2
        assert store.read_running("job").config == {"task_count": 4}

    def test_running_read_is_copy(self):
        store = store_with_job()
        store.commit_running("job", {"a": 1})
        vc = store.read_running("job")
        vc.config["a"] = 2
        assert store.read_running("job").config["a"] == 1


class TestSnapshots:
    def test_round_trip_preserves_everything(self):
        store = store_with_job("job-a")
        store.create_job("job-b")
        store.write_expected("job-a", ConfigLevel.SCALER, {"task_count": 8}, 0)
        store.commit_running("job-a", {"task_count": 8})
        store.set_state("job-b", JobState.QUARANTINED)

        restored = JobStore.load_snapshot(store.dump_snapshot())
        assert restored.job_ids() == ["job-a", "job-b"]
        assert restored.read_expected("job-a", ConfigLevel.SCALER).version == 1
        assert restored.read_running("job-a").config == {"task_count": 8}
        assert restored.state_of("job-b") == JobState.QUARANTINED

    def test_snapshot_versions_preserved(self):
        """Durability: versions survive a restart, so CAS semantics hold
        across crashes."""
        store = store_with_job()
        store.write_expected("job", ConfigLevel.ONCALL, {"a": 1}, 0)
        restored = JobStore.load_snapshot(store.dump_snapshot())
        with pytest.raises(VersionConflictError):
            restored.write_expected("job", ConfigLevel.ONCALL, {"a": 2}, 0)
        restored.write_expected("job", ConfigLevel.ONCALL, {"a": 2}, 1)
