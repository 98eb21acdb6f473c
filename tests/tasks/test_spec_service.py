"""Tests for TaskSpec generation and the Task Service's cached shard index."""

import pytest

from repro.errors import DegradedModeError, PlacementError, TurbineError
from repro.jobs import JobSpec
from repro.sim import Engine
from repro.tasks import TaskService, TaskSpec
from repro.tasks.shard import shard_id_for_task
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

    @pytest.mark.parametrize("threads", [0, -1])
    def test_threads_below_one_rejected(self, threads):
        """Every spec a container can host runs at least one thread: the
        step's contention shortcut sums hosted threads as a bound."""
        with pytest.raises(TurbineError, match="at least one thread"):
            TaskSpec.from_job_config(
                "job", 0, job_config(threads_per_task=threads)
            )

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


class TestTemplateAndHandle:
    """A job's specs are handles on one template (DESIGN.md, "Resident
    footprint")."""

    def specs(self, **overrides):
        return TaskService(Engine(), 8).set_job_specs("job", job_config(**overrides))

    @pytest.mark.parametrize("index", [-1, 4, 5])
    def test_a_handle_out_of_its_templates_range_is_rejected(self, index):
        template = self.specs()[0].template
        with pytest.raises(TurbineError, match="out of range"):
            TaskSpec(template, index)

    def test_threads_below_one_are_rejected_once_per_job(self):
        with pytest.raises(TurbineError, match="at least one thread"):
            self.specs(threads_per_task=0)

    def test_the_specs_of_a_template_return_one_fingerprint_object(self):
        """The Task Managers compare fingerprints on every reconcile: no
        tuple is built per call."""
        specs = self.specs()
        fingerprint = specs[0].settings_fingerprint()
        assert all(spec.settings_fingerprint() is fingerprint for spec in specs)
        assert specs[0].settings_fingerprint() is fingerprint

    def test_toggling_hot_standby_leaves_the_fingerprint_unchanged(self):
        off = self.specs()[0]
        on = self.specs(hot_standby=True)[0]
        assert (off.hot_standby, on.hot_standby) == (False, True)
        assert off.settings_fingerprint() == on.settings_fingerprint()

    def test_job_fields_read_through_the_template(self):
        spec = self.specs(task_count=3)[2]
        assert (spec.job_id, spec.task_id, spec.task_index) == ("job", "job:2", 2)
        assert (spec.task_count, spec.threads) == (3, 2)
        assert spec.input_category == spec.template.input_category == "cat"
        assert spec.resources is spec.template.resources

    def test_specs_compare_by_identity(self):
        a = TaskSpec.from_job_config("job", 0, job_config())
        b = TaskSpec.from_job_config("job", 0, job_config())
        assert a == a and a != b
        assert len({a, b, a}) == 2

    @pytest.mark.parametrize("name", ["task_index", "threads", "template"])
    def test_a_spec_is_immutable(self, name):
        spec = self.specs()[0]
        with pytest.raises(AttributeError):
            setattr(spec, name, 3)
        with pytest.raises(AttributeError):
            setattr(spec.template, "threads", 3)


def served(service):
    """Every task id the served index lists."""
    return {task_id for tasks in service.shard_index().values() for task_id in tasks}


class TestTaskService:
    def test_set_job_specs_generates_per_task(self):
        service = TaskService(Engine(), 8)
        specs = service.set_job_specs("job", job_config(task_count=3))
        assert [spec.task_id for spec in specs] == ["job:0", "job:1", "job:2"]

    def test_index_groups_every_job_by_md5_shard(self):
        service = TaskService(Engine(), 8)
        service.set_job_specs("a", job_config("a", task_count=2))
        service.set_job_specs("b", job_config("b", task_count=1))
        index = service.shard_index()
        assert served(service) == {"a:0", "a:1", "b:0"}
        for shard, tasks in index.items():
            for task_id, spec in tasks.items():
                assert shard_id_for_task(task_id, 8) == shard
                assert spec.task_id == task_id

    @pytest.mark.parametrize("num_shards", [0, -1])
    def test_num_shards_must_be_positive(self, num_shards):
        with pytest.raises(PlacementError, match="must be positive"):
            TaskService(Engine(), num_shards)

    def test_index_cached_within_ttl(self):
        engine = Engine()
        service = TaskService(engine, 8)
        service.set_job_specs("a", job_config("a"))
        first = service.shard_index()
        engine.run_until(30.0)
        assert service.shard_index() is first

    def test_update_hidden_until_ttl_expires(self):
        """The paper's propagation math (section IV-D) counts the full
        cache TTL: a committed change becomes visible to managers only
        when the cached index expires."""
        engine = Engine()
        service = TaskService(engine, 8)
        service.set_job_specs("a", job_config("a", task_count=1))
        before = service.shard_index()
        service.set_job_specs("a", job_config("a", task_count=2))
        engine.run_until(30.0)
        assert service.shard_index() is before, "stale within the TTL"
        engine.run_until(100.0)
        assert service.shard_index() is not before
        assert served(service) == {"a:0", "a:1"}

    def test_expiry_keeps_unchanged_build_shows_lazy_change(self):
        engine = Engine()
        service = TaskService(engine, 8)
        service.set_job_specs("a", job_config("a"))
        first = service.shard_index()
        # Expired over an unchanged table: the same build, with a fresh TTL.
        engine.run_until(100.0)
        assert service.shard_index() is first
        # A lazy change stays hidden for the restarted TTL, then shows.
        service.set_job_specs("a", job_config("a", task_count=2))
        engine.run_until(180.0)
        assert service.shard_index() is first
        engine.run_until(200.0)
        assert service.shard_index() is not first
        assert served(service) == {"a:0", "a:1"}

    def test_a_rebuild_keeps_every_unchanged_shard_dict(self):
        """A changed shard gets a new dict, an emptied one leaves the
        index and every other shard keeps its dict object, so a Task
        Manager finds the changed shards by identity."""
        service = TaskService(Engine(), 64)
        jobs = {}
        for index in range(64):
            shard = shard_id_for_task(f"job-{index}:0", 64)
            if shard not in jobs.values():
                jobs[f"job-{index}"] = shard
            if len(jobs) == 3:
                break
        (changed, changed_shard), (kept, kept_shard), (removed, removed_shard) = (
            jobs.items()
        )
        for job_id in jobs:
            service.set_job_specs(job_id, job_config(job_id, task_count=1))
        first = service.shard_index()
        service.set_job_specs(changed, job_config(changed, task_count=1), urgent=True)
        service.remove_job(removed)
        rebuilt = service.shard_index()
        assert rebuilt is not first
        assert rebuilt[kept_shard] is first[kept_shard]
        assert rebuilt[changed_shard] is not first[changed_shard]
        assert rebuilt[changed_shard] == {
            f"{changed}:0": service.specs_of(changed)[0]
        }
        assert removed_shard not in rebuilt

    def test_remove_job(self):
        service = TaskService(Engine(), 8)
        service.set_job_specs("a", job_config("a"))
        service.remove_job("a")
        assert service.shard_index() == {}
        assert service.specs_of("a") == []
        service.remove_job("a")  # idempotent

    def test_degraded_mode_raises(self):
        service = TaskService(Engine(), 8)
        service.set_job_specs("a", job_config("a"))
        service.available = False
        with pytest.raises(DegradedModeError):
            service.shard_index()

    def test_version_bumps_on_change(self):
        service = TaskService(Engine(), 8)
        v0 = service.version.value
        service.set_job_specs("a", job_config("a"))
        assert service.version.value > v0

    def test_a_lazy_write_keeps_the_build_an_urgent_one_replaces_it(self):
        engine = Engine()
        service = TaskService(engine, 8)
        service.set_job_specs("a", job_config("a"))
        first = service.shard_index()
        # A lazy write does not rebuild the index within the TTL…
        service.set_job_specs("b", job_config("b"))
        assert service.shard_index() is first
        # …but an urgent one does.
        service.set_job_specs("c", job_config("c"), urgent=True)
        assert service.shard_index() is not first
        assert served(service) == {
            f"{job}:{index}" for job in "abc" for index in range(4)
        }

    def test_urgent_write_visible_immediately(self):
        engine = Engine()
        service = TaskService(engine, 8)
        service.set_job_specs("a", job_config("a", task_count=1))
        service.shard_index()
        service.set_job_specs("a", job_config("a", task_count=2), urgent=True)
        assert served(service) == {"a:0", "a:1"}

    def test_remove_job_visible_immediately(self):
        engine = Engine()
        service = TaskService(engine, 8)
        service.set_job_specs("a", job_config("a"))
        service.shard_index()
        service.remove_job("a")
        assert service.shard_index() == {}

    def test_job_ids_sorted(self):
        service = TaskService(Engine(), 8)
        service.set_job_specs("z", job_config("z"))
        service.set_job_specs("a", job_config("a"))
        assert service.job_ids() == ["a", "z"]
