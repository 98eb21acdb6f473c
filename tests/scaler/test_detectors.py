"""Tests for the symptom detectors."""

import repro.scaler.detectors
from repro.scaler import SymptomDetector
from tests.scaler.helpers import make_snapshot


def test_healthy_job_has_no_symptoms():
    symptoms = SymptomDetector().detect(make_snapshot())
    assert symptoms.healthy
    assert not symptoms.lagging
    assert not symptoms.imbalanced
    assert not symptoms.oom


def test_lag_above_slo_detected():
    snapshot = make_snapshot(time_lagged=120.0, slo_lag_seconds=90.0)
    assert SymptomDetector().detect(snapshot).lagging


def test_lag_below_slo_not_detected():
    snapshot = make_snapshot(time_lagged=60.0, slo_lag_seconds=90.0)
    assert not SymptomDetector().detect(snapshot).lagging


def test_custom_slo_respected():
    snapshot = make_snapshot(time_lagged=40.0, slo_lag_seconds=30.0)
    assert SymptomDetector().detect(snapshot).lagging


def test_imbalance_detected_by_rate_spread():
    # mean per-task rate = 1.0, stdev = 0.8 → ratio 0.8 > 0.5
    snapshot = make_snapshot(processing_rate_mb=4.0, task_rate_stdev=0.8)
    assert SymptomDetector().detect(snapshot).imbalanced


def test_balanced_input_not_flagged():
    snapshot = make_snapshot(processing_rate_mb=4.0, task_rate_stdev=0.2)
    assert not SymptomDetector().detect(snapshot).imbalanced


def test_single_task_never_imbalanced():
    snapshot = make_snapshot(
        task_count=1, running_tasks=1, task_rate_stdev=100.0
    )
    assert not SymptomDetector().detect(snapshot).imbalanced


def test_idle_job_never_imbalanced():
    snapshot = make_snapshot(processing_rate_mb=0.0, task_rate_stdev=1.0)
    assert not SymptomDetector().detect(snapshot).imbalanced


def test_oom_detected():
    assert SymptomDetector().detect(make_snapshot(oom_recently=True)).oom


def test_custom_threshold(monkeypatch):
    monkeypatch.setattr(repro.scaler.detectors, "IMBALANCE_THRESHOLD", 2.0)
    snapshot = make_snapshot(processing_rate_mb=4.0, task_rate_stdev=1.5)
    assert not SymptomDetector().detect(snapshot).imbalanced
