"""Tests for typed config validation (the Thrift-equivalent layer)."""

import pytest

from repro.errors import JobStoreError
from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore
from repro.jobs.schema import validate_typed


class TestValidateTyped:
    def test_valid_full_config_passes(self):
        config = JobSpec(
            job_id="j", input_category="c", stateful=True,
            state_key_cardinality=100, output_category="o",
        ).to_provisioner_config()
        validate_typed(config)

    def test_wrong_scalar_type_rejected(self):
        with pytest.raises(JobStoreError, match="task_count"):
            validate_typed({"task_count": "ten"})

    def test_bool_is_not_an_int(self):
        with pytest.raises(JobStoreError, match="bool"):
            validate_typed({"task_count": True})

    def test_nested_type_checked(self):
        with pytest.raises(JobStoreError, match="resources.cpu"):
            validate_typed({"resources": {"cpu": "lots"}})
        with pytest.raises(JobStoreError, match="package.version"):
            validate_typed({"package": {"version": 2}})

    def test_mapping_expected_but_scalar_given(self):
        with pytest.raises(JobStoreError, match="mapping"):
            validate_typed({"resources": 4})

    def test_floats_accept_ints(self):
        validate_typed({"resources": {"cpu": 2}})  # int where float is fine

    def test_threads_below_one_rejected(self):
        with pytest.raises(JobStoreError, match="threads_per_task"):
            validate_typed({"threads_per_task": 0})
        validate_typed({"threads_per_task": 1})

    def test_unknown_keys_are_open(self):
        """New services add new keys without schema changes (III-A)."""
        validate_typed({"auto_root_causer": {"enabled": True}})
        validate_typed({"resources": {"gpu": "why not"}})


class TestServiceEnforcement:
    def make_service(self):
        service = JobService(JobStore())
        service.provision(JobSpec(job_id="job", input_category="cat"))
        return service

    def test_typed_patch_rejected_at_write(self):
        service = self.make_service()
        with pytest.raises(JobStoreError, match="task_count"):
            service.patch("job", ConfigLevel.ONCALL, {"task_count": "many"})
        # Nothing was written.
        assert "task_count" not in (
            service.store.read_expected("job", ConfigLevel.ONCALL).config
        )

    @pytest.mark.parametrize("changes", [
        {"threads_per_task": -1},
        {"threads_per_task": 0},
        {"perf": {"rate_per_thread_mb": float("nan")}},
        {"perf": {"rate_per_thread_mb": float("inf")}},
        {"output": {"ratio": float("nan")}},
        {"resources": {"cpu": float("inf")}},
    ])
    def test_unrunnable_values_rejected_at_write(self, changes):
        service = self.make_service()
        before = service.store.read_expected("job", ConfigLevel.ONCALL)
        with pytest.raises(JobStoreError):
            service.patch("job", ConfigLevel.ONCALL, changes)
        # Nothing was written.
        after = service.store.read_expected("job", ConfigLevel.ONCALL)
        assert (after.version, after.config) == (before.version, before.config)

    def test_valid_patch_still_lands(self):
        service = self.make_service()
        service.patch("job", ConfigLevel.ONCALL, {"task_count": 7})
        assert service.expected_config("job")["task_count"] == 7
