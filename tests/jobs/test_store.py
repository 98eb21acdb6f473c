"""Tests for the Job Store: versioned tables and durability snapshots."""

import gc
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import JobStoreError, VersionConflictError
from repro.jobs import ConfigLevel, JobStore
from repro.jobs.model import base_config
from repro.types import JobState
from repro.workloads.scuba import ScubaFleet


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

    def test_a_write_that_loses_its_cas_leaves_the_store_unchanged(self):
        """A writer edits the nested maps of its copy in place and then
        loses the compare-and-swap: nothing of its edit may reach the
        store (the copy is deep), and no change is announced."""
        store = store_with_job()
        store.write_expected(
            "job", ConfigLevel.ONCALL, {"resources": {"cpu": 1.0}}, 0
        )
        stale = store.read_expected("job", ConfigLevel.ONCALL)
        store.write_expected(
            "job", ConfigLevel.ONCALL, {"resources": {"cpu": 2.0}}, 1
        )
        before = store.dump_snapshot()
        cursor = store.change_cursor()
        cursor.poll()
        edited = store.read_expected("job", ConfigLevel.ONCALL).config
        edited["resources"]["cpu"] = 3.0
        with pytest.raises(VersionConflictError):
            store.write_expected(
                "job", ConfigLevel.ONCALL, edited, stale.version
            )
        assert store.dump_snapshot() == before
        assert store.merged_expected("job") == {"resources": {"cpu": 2.0}}
        assert cursor.poll() == []

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

    def test_running_read_is_a_deep_copy(self):
        store = store_with_job()
        store.commit_running("job", {"resources": {"cpu": 1.0}})
        vc = store.read_running("job")
        vc.config["resources"]["cpu"] = 2.0
        assert store.read_running("job").config == {"resources": {"cpu": 1.0}}


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

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_dump_load_dump_is_byte_identical_after_any_writes(self, data):
        """Arbitrary writes, commits and lifecycle calls; the snapshot of
        the reloaded store is the same bytes as the original's."""
        keys = st.sampled_from(["x", "limits", "ü", ""])
        values = st.recursive(
            st.none() | st.booleans() | st.integers(-5, 5) | st.text(max_size=3)
            | st.floats(allow_nan=False, allow_infinity=False),
            lambda inner: st.lists(inner, max_size=3)
            | st.dictionaries(keys, inner, max_size=3),
            max_leaves=6,
        )
        configs = st.dictionaries(keys, values, max_size=4)
        store = JobStore()
        jobs = ["a", "b", "c"]
        for job_id in jobs:
            store.create_job(job_id)
        for _ in range(data.draw(st.integers(0, 12))):
            job_id = data.draw(st.sampled_from(jobs))
            if not store.exists(job_id):
                continue
            action = data.draw(st.sampled_from(
                ["write", "commit", "quiet", "dirty", "state", "delete"]
            ))
            if action == "write":
                level = data.draw(st.sampled_from(list(ConfigLevel)))
                version = store.read_expected(job_id, level).version
                store.write_expected(job_id, level, data.draw(configs), version)
            elif action == "commit":
                store.commit_running(job_id, data.draw(configs))
            elif action == "quiet":
                merged = store.expected_for_sync(job_id)
                if merged is not None:
                    store.commit_running(job_id, merged, quiet=True)
            elif action == "dirty":
                store.mark_dirty(job_id)
            elif action == "state":
                store.set_state(job_id, data.draw(st.sampled_from(list(JobState))))
            else:
                store.delete_job(job_id)
        snapshot = store.dump_snapshot()
        assert JobStore.load_snapshot(snapshot).dump_snapshot() == snapshot


class TestCommandSink:
    def test_a_sink_that_edits_its_config_changes_no_stored_level(self):
        """A command sink gets the config of every write and commit. What
        it does with that dict must not reach the store: the levels, the
        running config and the convergence verdict stay as written, with
        no version bump and no notification behind the merge stamp."""
        store = store_with_job()
        store.set_command_sink(
            lambda op, args: "config" in args
            and args["config"].update(task_count=99)
        )
        store.write_expected("job", ConfigLevel.ONCALL, {"task_count": 2}, 0)
        store.commit_running("job", {"task_count": 1})
        assert store.read_expected("job", ConfigLevel.ONCALL).config == {
            "task_count": 2
        }
        assert store.read_running("job").config == {"task_count": 1}
        assert store.merged_expected("job") == {"task_count": 2}
        assert not store.config_converged("job")
        store.commit_running("job", store.expected_for_sync("job"), quiet=True)
        assert store.read_running("job").config == {"task_count": 2}
        assert store.config_converged("job")


class TestFootprint:
    def test_a_scuba_fleet_store_costs_at_most_2500_bytes_a_job(self):
        """The tables of 1 000 provisioned and synced Scuba tailers: each
        level and running config is kept as its JSON text (≈ 1 800 B a
        job), not as a decoded dict tree (≈ 8 600 B)."""
        jobs = 1_000
        levels = [
            (spec.job_id, base_config(), spec.to_provisioner_config())
            for spec in ScubaFleet(jobs, seed=1).job_specs()
        ]
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            store = JobStore()
            for job_id, base, provisioner in levels:
                store.create_job(job_id)
                store.write_expected(job_id, ConfigLevel.BASE, base, 0)
                store.write_expected(
                    job_id, ConfigLevel.PROVISIONER, provisioner, 0
                )
                store.commit_running(
                    job_id, store.merged_expected(job_id), quiet=True
                )
            gc.collect()
            per_job = (tracemalloc.get_traced_memory()[0] - before) / jobs
        finally:
            tracemalloc.stop()
        assert store.job_ids() == sorted(job_id for job_id, _, _ in levels)
        assert per_job <= 2_500, per_job
