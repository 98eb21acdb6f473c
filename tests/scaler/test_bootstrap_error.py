"""The scaler converges even when the staging-period P hint is wrong.

The staging profile is only a bootstrap; runtime refinement (saturation
observations upward, post-downscale violations downward) corrects it — the
continuous-estimation direction the paper's section IX points at.
"""

import pytest

import repro.scaler.proactive
from repro import JobSpec, PlatformConfig, Turbine
from repro.scaler import AutoScalerConfig
from repro.workloads import TrafficDriver


def run_with_bootstrap_error(monkeypatch, error, seed=67):
    monkeypatch.setattr(repro.scaler.proactive, "BOOTSTRAP_ERROR", error)
    platform = Turbine.create(
        num_hosts=4, seed=seed,
        config=PlatformConfig(num_shards=64, containers_per_host=2,
                              step_interval=30.0),
    )
    platform.attach_scaler(AutoScalerConfig(interval=120.0))
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=2,
                rate_per_thread_mb=2.0, task_count_limit=64),
        partitions=64,
    )
    driver = TrafficDriver(platform.engine, platform.scribe, tick=30.0)
    driver.add_source("cat", lambda t: 20.0)
    driver.start()
    # The overestimated case needs several correction rounds (each wants a
    # streak of saturated-lag observations) before capacity is right.
    platform.run_for(hours=5)
    config = platform.job_service.expected_config("job")
    capacity = config["task_count"] * config.get("threads_per_task", 1) * 2.0
    lag = platform.metrics.latest("job", "time_lagged") or 0.0
    estimated_p = platform.scaler.analyzer.rate_per_thread("job", 0.1)
    return capacity, lag, estimated_p


def test_underestimated_p_corrected_upward(monkeypatch):
    """Bootstrap says P=1 (half the truth). Saturation observations pull
    the estimate up toward 2, so the job is not wildly over-provisioned."""
    capacity, lag, estimated_p = run_with_bootstrap_error(monkeypatch, 0.5)
    assert lag < 90.0, "the job must end within SLO"
    assert estimated_p > 1.3, "P refined upward from the 1.0 bootstrap"
    assert capacity <= 20.0 * 2.5, "no massive over-provisioning"


def test_accurate_p_baseline(monkeypatch):
    capacity, lag, estimated_p = run_with_bootstrap_error(monkeypatch, 1.0)
    assert lag < 90.0
    assert capacity >= 20.0


def test_overestimated_p_still_serves(monkeypatch):
    """Bootstrap says P=4 (double the truth): the first sizing is too
    small, lag persists, and the scaler keeps adding capacity until the
    job serves — estimates are advisory, symptoms are ground truth."""
    capacity, lag, estimated_p = run_with_bootstrap_error(monkeypatch, 2.0)
    assert lag < 90.0
    assert capacity >= 20.0
