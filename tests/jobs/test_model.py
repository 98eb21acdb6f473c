"""Tests for JobSpec and canonical config keys."""

import pytest

from repro.cluster import ResourceVector
from repro.errors import JobStoreError
from repro.jobs import JobSpec
from repro.jobs.model import (
    DEFAULT_TASK_COUNT_LIMIT,
    KEY_INPUT,
    KEY_PACKAGE,
    KEY_RESOURCES,
    KEY_SLO,
    KEY_STATE_KEY_CARDINALITY,
    KEY_STATEFUL,
    KEY_TASK_COUNT,
    KEY_TASK_COUNT_LIMIT,
    base_config,
)
from repro.jobs.configs import validate_config
from repro.types import SLO, Priority


def test_minimal_spec_defaults():
    spec = JobSpec(job_id="scuba/ads", input_category="ads")
    assert spec.task_count == 1
    assert spec.task_count_limit == DEFAULT_TASK_COUNT_LIMIT
    assert spec.priority == Priority.NORMAL
    assert not spec.stateful


def test_config_round_trip_keys():
    spec = JobSpec(
        job_id="scuba/ads",
        input_category="ads",
        task_count=4,
        resources_per_task=ResourceVector(cpu=1.0, memory_gb=2.0),
    )
    config = spec.to_provisioner_config()
    assert config[KEY_TASK_COUNT] == 4
    assert config[KEY_INPUT] == {"category": "ads"}
    assert config[KEY_RESOURCES]["cpu"] == 1.0
    assert config[KEY_PACKAGE]["name"] == "stream_engine"
    assert config[KEY_SLO]["max_lag_seconds"] == 90.0
    validate_config(config)  # must be JSON-clean


def test_stateful_spec_includes_cardinality():
    spec = JobSpec(
        job_id="agg", input_category="in", stateful=True,
        state_key_cardinality=1_000_000,
    )
    config = spec.to_provisioner_config()
    assert config[KEY_STATEFUL] is True
    assert config[KEY_STATE_KEY_CARDINALITY] == 1_000_000


def test_stateless_spec_omits_cardinality():
    config = JobSpec(job_id="j", input_category="c").to_provisioner_config()
    assert KEY_STATE_KEY_CARDINALITY not in config


def test_output_category_optional():
    with_out = JobSpec(job_id="j", input_category="c", output_category="o",
                       output_ratio=0.5)
    assert with_out.to_provisioner_config()["output"] == {
        "category": "o", "ratio": 0.5,
    }
    without = JobSpec(job_id="j", input_category="c")
    assert "output" not in without.to_provisioner_config()


def test_custom_slo():
    spec = JobSpec(
        job_id="j", input_category="c",
        slo=SLO(max_lag_seconds=30.0, recovery_seconds=600.0),
    )
    config = spec.to_provisioner_config()
    assert config[KEY_SLO] == {"max_lag_seconds": 30.0, "recovery_seconds": 600.0}


def test_invalid_specs_rejected():
    with pytest.raises(JobStoreError):
        JobSpec(job_id="", input_category="c")
    with pytest.raises(JobStoreError):
        JobSpec(job_id="j", input_category="c", task_count=0)
    with pytest.raises(JobStoreError):
        JobSpec(job_id="j", input_category="c", threads_per_task=0)
    with pytest.raises(JobStoreError):
        JobSpec(job_id="j", input_category="c", task_count_limit=0)


@pytest.mark.parametrize("fields", [
    {"rate_per_thread_mb": float("nan")},
    {"rate_per_thread_mb": float("inf")},
    {"output_ratio": float("nan")},
    {"output_ratio": float("inf")},
])
def test_non_finite_rates_rejected(fields):
    with pytest.raises(JobStoreError):
        JobSpec(job_id="j", input_category="c", **fields)


def test_invalid_slo_rejected():
    with pytest.raises(ValueError):
        SLO(max_lag_seconds=0.0)
    with pytest.raises(ValueError):
        SLO(recovery_seconds=-1.0)


def test_base_config_is_valid_and_has_defaults():
    config = base_config()
    validate_config(config)
    assert config[KEY_TASK_COUNT_LIMIT] == DEFAULT_TASK_COUNT_LIMIT
    assert config[KEY_SLO]["max_lag_seconds"] == 90.0
