"""Tests for TaskSpec generation and the Task Service snapshot cache."""

import pytest

from repro.errors import DegradedModeError, TurbineError
from repro.jobs import JobSpec
from repro.sim import Engine
from repro.tasks import TaskService, TaskSpec
from repro.tasks.spec import task_id_for
from repro.types import Priority


def job_config(job_id="job", task_count=4, **overrides):
    spec = JobSpec(
        job_id=job_id, input_category="cat", task_count=task_count,
        threads_per_task=2,
    )
    config = spec.to_provisioner_config()
    config.update(overrides)
    return config


class TestTaskSpec:
    def test_from_job_config(self):
        spec = TaskSpec.from_job_config("job", 1, job_config())
        assert spec.task_id == "job:1"
        assert spec.task_index == 1
        assert spec.task_count == 4
        assert spec.threads == 2
        assert spec.input_category == "cat"
        assert spec.priority == Priority.NORMAL

    def test_task_id_format(self):
        assert task_id_for("scuba/ads", 7) == "scuba/ads:7"

    def test_index_out_of_range_rejected(self):
        with pytest.raises(TurbineError):
            TaskSpec.from_job_config("job", 4, job_config(task_count=4))

    def test_fingerprint_changes_with_version(self):
        a = TaskSpec.from_job_config("job", 0, job_config())
        config = job_config()
        config["package"]["version"] = "2.0"
        b = TaskSpec.from_job_config("job", 0, config)
        assert a.settings_fingerprint() != b.settings_fingerprint()

    def test_fingerprint_stable_for_same_settings(self):
        a = TaskSpec.from_job_config("job", 0, job_config())
        b = TaskSpec.from_job_config("job", 0, job_config())
        assert a.settings_fingerprint() == b.settings_fingerprint()


class TestTaskService:
    def test_set_job_specs_generates_per_task(self):
        service = TaskService(Engine())
        specs = service.set_job_specs("job", job_config(task_count=3))
        assert [spec.task_id for spec in specs] == ["job:0", "job:1", "job:2"]

    def test_snapshot_contains_all_jobs(self):
        service = TaskService(Engine())
        service.set_job_specs("a", job_config("a", task_count=2))
        service.set_job_specs("b", job_config("b", task_count=1))
        snapshot = service.snapshot()
        assert set(snapshot) == {"a:0", "a:1", "b:0"}

    def test_snapshot_cached_within_ttl(self):
        engine = Engine()
        service = TaskService(engine, cache_ttl=90.0)
        service.set_job_specs("a", job_config("a"))
        first = service.snapshot()
        engine.run_until(30.0)
        assert service.snapshot() is first

    def test_update_hidden_until_ttl_expires(self):
        """The paper's propagation math (section IV-D) counts the full
        cache TTL: a committed change becomes visible to managers only
        when the cached snapshot expires."""
        engine = Engine()
        service = TaskService(engine, cache_ttl=90.0)
        service.set_job_specs("a", job_config("a", task_count=1))
        before = service.snapshot()
        service.set_job_specs("a", job_config("a", task_count=2))
        engine.run_until(30.0)
        assert service.snapshot() is before, "stale within the TTL"
        engine.run_until(100.0)
        after = service.snapshot()
        assert after is not before
        assert len(after) == 2

    def test_expiry_keeps_unchanged_build_shows_lazy_change(self):
        engine = Engine()
        service = TaskService(engine, cache_ttl=90.0)
        service.set_job_specs("a", job_config("a"))
        first = service.snapshot()
        grouping = service.shard_index(8)
        # Expired over an unchanged table: the same build and grouping,
        # with a fresh TTL.
        engine.run_until(100.0)
        assert service.snapshot() is first
        assert service.shard_index(8) is grouping
        # A lazy change stays hidden for the restarted TTL, then shows.
        service.set_job_specs("a", job_config("a", task_count=2))
        engine.run_until(180.0)
        assert service.snapshot() is first
        engine.run_until(200.0)
        rebuilt = service.snapshot()
        assert rebuilt is not first and set(rebuilt) == {"a:0", "a:1"}
        assert service.shard_index(8) is not grouping

    def test_remove_job(self):
        service = TaskService(Engine())
        service.set_job_specs("a", job_config("a"))
        service.remove_job("a")
        assert service.snapshot() == {}
        assert service.specs_of("a") == []
        service.remove_job("a")  # idempotent

    def test_degraded_mode_raises(self):
        service = TaskService(Engine())
        service.set_job_specs("a", job_config("a"))
        service.available = False
        with pytest.raises(DegradedModeError):
            service.snapshot()

    def test_version_bumps_on_change(self):
        service = TaskService(Engine())
        v0 = service.version.value
        service.set_job_specs("a", job_config("a"))
        assert service.version.value > v0

    def test_shard_index_covers_snapshot(self):
        service = TaskService(Engine())
        service.set_job_specs("a", job_config("a", task_count=10))
        index = service.shard_index(8)
        indexed_tasks = {
            task_id for bucket in index.values() for task_id in bucket
        }
        assert indexed_tasks == set(service.snapshot())

    def test_shard_index_memoized_per_snapshot_build(self):
        engine = Engine()
        service = TaskService(engine, cache_ttl=90.0)
        service.set_job_specs("a", job_config("a"))
        first = service.shard_index(8)
        assert service.shard_index(8) is first
        # A lazy write does not rebuild the index within the TTL…
        service.set_job_specs("b", job_config("b"))
        assert service.shard_index(8) is first
        # …but an urgent one does.
        service.set_job_specs("c", job_config("c"), urgent=True)
        rebuilt = service.shard_index(8)
        assert rebuilt is not first
        indexed = {tid for bucket in rebuilt.values() for tid in bucket}
        assert indexed == set(service.snapshot())

    def test_urgent_write_visible_immediately(self):
        engine = Engine()
        service = TaskService(engine, cache_ttl=90.0)
        service.set_job_specs("a", job_config("a", task_count=1))
        service.snapshot()
        service.set_job_specs("a", job_config("a", task_count=2), urgent=True)
        assert len(service.snapshot()) == 2

    def test_remove_job_visible_immediately(self):
        engine = Engine()
        service = TaskService(engine, cache_ttl=90.0)
        service.set_job_specs("a", job_config("a"))
        service.snapshot()
        service.remove_job("a")
        assert service.snapshot() == {}

    def test_job_ids_sorted(self):
        service = TaskService(Engine())
        service.set_job_specs("z", job_config("z"))
        service.set_job_specs("a", job_config("a"))
        assert service.job_ids() == ["a", "z"]
