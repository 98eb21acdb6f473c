"""Unit tests for JobSnapshot construction from the metric store."""

import pytest

from repro.jobs import JobSpec, JobView
from repro.metrics import MetricStore
from repro.scaler.snapshot import snapshot_job
from repro.types import Priority


def view_for(**spec_overrides):
    spec = JobSpec(
        job_id="job", input_category="cat", task_count=4,
        threads_per_task=2, rate_per_thread_mb=3.0, **spec_overrides,
    )
    return JobView.from_config(spec.to_provisioner_config())


def store_with_metrics(now=1000.0):
    metrics = MetricStore()
    for t in range(0, int(now) + 1, 60):
        metrics.record("job", "input_rate_mb", float(t), 6.0)
    metrics.record("job", "processing_rate_mb", now, 5.5)
    metrics.record("job", "bytes_lagged_mb", now, 120.0)
    metrics.record("job", "time_lagged", now, 20.0)
    metrics.record("job", "task_rate_stdev", now, 0.4)
    metrics.record("job", "running_tasks", now, 4.0)
    return metrics


def test_snapshot_reads_config_fields():
    snapshot = snapshot_job("job", view_for(), store_with_metrics(), 1000.0)
    assert snapshot.task_count == 4
    assert snapshot.threads == 2
    assert snapshot.task_count_limit == 32
    assert snapshot.priority == Priority.NORMAL
    assert snapshot.slo_lag_seconds == 90.0


def test_snapshot_reads_metrics():
    snapshot = snapshot_job("job", view_for(), store_with_metrics(), 1000.0)
    assert snapshot.input_rate_mb == pytest.approx(6.0)
    assert snapshot.processing_rate_mb == 5.5
    assert snapshot.backlog_mb == 120.0
    assert snapshot.time_lagged == 20.0
    assert snapshot.running_tasks == 4


def test_input_rate_averaged_over_window():
    metrics = MetricStore()
    # Old rate 2.0, recent 10 minutes at 8.0.
    for t in range(0, 401, 100):
        metrics.record("job", "input_rate_mb", float(t), 2.0)
    for t in range(500, 1001, 100):
        metrics.record("job", "input_rate_mb", float(t), 8.0)
    snapshot = snapshot_job("job", view_for(), metrics, 1000.0)
    # Trailing 600 s window: one old sample (t=400, 2.0) plus six at 8.0.
    assert snapshot.input_rate_mb == pytest.approx((2.0 + 6 * 8.0) / 7)


def test_missing_metrics_default_to_zero():
    snapshot = snapshot_job("job", view_for(), MetricStore(), 1000.0)
    assert snapshot.input_rate_mb == 0.0
    assert snapshot.running_tasks == 0
    assert not snapshot.lagging


def test_oom_window():
    metrics = store_with_metrics()
    metrics.record("job", "oom_events", 1000.0, 1.0)
    fresh = snapshot_job("job", view_for(), metrics, 1000.0)
    assert fresh.oom_recently
    # Hours later the event has aged out of the window.
    metrics.record("job", "input_rate_mb", 9000.0, 6.0)
    old = snapshot_job("job", view_for(), metrics, 9000.0)
    assert not old.oom_recently


def test_lagging_property_uses_job_slo():
    from repro.types import SLO

    view = view_for(slo=SLO(max_lag_seconds=10.0))
    metrics = store_with_metrics()
    snapshot = snapshot_job("job", view, metrics, 1000.0)
    assert snapshot.time_lagged == 20.0
    assert snapshot.lagging, "20 s lag exceeds the 10 s SLO"


def test_per_task_rate():
    snapshot = snapshot_job("job", view_for(), store_with_metrics(), 1000.0)
    assert snapshot.per_task_rate == pytest.approx(5.5 / 4)


def test_bootstrap_rate_hint():
    assert view_for().rate_per_thread_mb == 3.0
    assert JobView.from_config({}).rate_per_thread_mb == 2.0  # default P
