"""Tests for the reactive (first-generation) scaler baseline."""

import pytest

import repro.scaler.reactive
from repro import JobSpec, PlatformConfig, Turbine
from repro.scaler import ReactiveAutoScaler


def reactive_platform(monkeypatch, downscale_after=1200.0, seed=5):
    """A platform under the reactive scaler, whose quiet-time window
    (``DOWNSCALE_AFTER``, a day) is shortened to ``downscale_after``."""
    monkeypatch.setattr(
        repro.scaler.reactive, "DOWNSCALE_AFTER", downscale_after
    )
    config = PlatformConfig(num_shards=16, containers_per_host=2)
    platform = Turbine.create(num_hosts=3, seed=seed, config=config)
    platform.scaler = ReactiveAutoScaler(
        platform.engine, platform.job_service, platform.metrics,
        platform.scribe,
    )
    platform.start()
    return platform


def feed(platform, category, rate_mb, minutes):
    for __ in range(int(minutes)):
        platform.scribe.get_category(category).append(rate_mb * 60.0)
        platform.run_for(minutes=1)


def test_lag_doubles_task_count(monkeypatch):
    platform = reactive_platform(monkeypatch)
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=2,
                rate_per_thread_mb=2.0),
    )
    platform.run_for(minutes=3)
    feed(platform, "cat", rate_mb=30.0, minutes=10)
    upscales = [a for a in platform.scaler.actions if a.kind == "upscale"]
    assert upscales
    assert platform.job_service.expected_config("job")["task_count"] >= 4


def test_reactive_converges_slower_than_needed(monkeypatch):
    """The motivating flaw: fixed-step doubling takes several rounds to
    reach the required capacity — no estimate shortcuts it."""
    platform = reactive_platform(monkeypatch)
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=1,
                rate_per_thread_mb=1.0, task_count_limit=64),
    )
    platform.run_for(minutes=3)
    feed(platform, "cat", rate_mb=30.0, minutes=12)
    upscales = [a for a in platform.scaler.actions if a.kind == "upscale"]
    assert len(upscales) >= 3, "doubling needs many rounds: 1→2→4→8…"


def test_quiet_job_shrinks_one_task_at_a_time(monkeypatch):
    platform = reactive_platform(monkeypatch, downscale_after=900.0)
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=6,
                rate_per_thread_mb=5.0),
    )
    platform.run_for(minutes=3)
    feed(platform, "cat", rate_mb=2.0, minutes=40)
    downscales = [a for a in platform.scaler.actions if a.kind == "downscale"]
    assert downscales
    final = platform.job_service.expected_config("job")["task_count"]
    assert final < 6


def test_reactive_can_overshoot_downscale(monkeypatch):
    """Without a resource floor, the reactive scaler keeps shrinking a
    quiet job until it lags — the incorrect-downscale flaw (section V-A).
    The proactive scaler's floor prevents exactly this."""
    platform = reactive_platform(monkeypatch, downscale_after=600.0)
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=4,
                rate_per_thread_mb=2.0),
    )
    platform.run_for(minutes=3)
    # Steady 6 MB/s needs ceil(6/2)=3 tasks; reactive will still try 2.
    feed(platform, "cat", rate_mb=6.0, minutes=90)
    counts = [
        a.detail for a in platform.scaler.actions if a.kind == "downscale"
    ]
    lag_series = platform.metrics.row("job")["time_lagged"]
    max_lag = max(
        (value for __, value in lag_series.all_points()), default=0.0
    )
    assert counts, "reactive scaler must have attempted downscales"
    assert max_lag > 90.0, "overshoot should cause an SLO violation"
