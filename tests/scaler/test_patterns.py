"""Tests for the Pattern Analyzer (P adjustment + 14-day history)."""

import pytest

from repro.metrics import MetricStore
from repro.scaler import PatternAnalyzer
from tests.scaler.helpers import make_snapshot

DAY = 86400.0


def analyzer_with_history(days=3, rate=4.0, peak_rate=None, peak_hour=None):
    """A metric store with per-minute input rates over several days.

    ``peak_rate``/``peak_hour`` inject a daily traffic peak.
    """
    metrics = MetricStore()
    metrics.retain("input_rate_mb", 15 * DAY)
    now = days * DAY
    t = 0.0
    while t <= now:
        value = rate
        if peak_rate is not None and peak_hour is not None:
            hour = (t % DAY) / 3600.0
            if peak_hour <= hour < peak_hour + 1:
                value = peak_rate
        metrics.record("job", "input_rate_mb", t, value)
        t += 60.0
    return PatternAnalyzer(metrics), metrics, now


class TestRateEstimation:
    def test_bootstrap_on_first_sight(self):
        analyzer = PatternAnalyzer(MetricStore())
        assert analyzer.rate_per_thread("job", bootstrap=2.5) == 2.5

    def test_bootstrap_sticky(self):
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=2.5)
        assert analyzer.rate_per_thread("job", bootstrap=99.0) == 2.5

    def test_underestimate_raises_p(self):
        """Observed per-task throughput above estimated P pulls P up."""
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=1.0)
        snapshot = make_snapshot(processing_rate_mb=12.0, running_tasks=4)
        analyzer.observe_underestimate(snapshot)  # observed 3.0 per task
        assert analyzer.rate_per_thread("job", 1.0) == pytest.approx(3.0)

    def test_underestimate_never_lowers_p(self):
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=10.0)
        snapshot = make_snapshot(processing_rate_mb=4.0, running_tasks=4)
        analyzer.observe_underestimate(snapshot)
        assert analyzer.rate_per_thread("job", 10.0) == 10.0

    def test_saturated_throughput_raises_p(self):
        """Runtime refinement: a lagging (saturated) job's observed
        per-thread rate is a lower bound on the true P."""
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=1.0)
        snapshot = make_snapshot(
            processing_rate_mb=10.0, running_tasks=4, time_lagged=300.0,
        )
        assert analyzer.observe_saturated_throughput(snapshot)
        assert analyzer.rate_per_thread("job", 1.0) == pytest.approx(2.5)

    def test_mild_lag_never_lowers_p(self):
        """Transient lag is not evidence against the estimate."""
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=5.0)
        snapshot = make_snapshot(
            processing_rate_mb=4.0, running_tasks=4, time_lagged=100.0,
        )
        assert not analyzer.observe_saturated_throughput(snapshot)
        assert analyzer.rate_per_thread("job", 5.0) == 5.0

    def test_degraded_job_never_lowers_p(self):
        """Missing tasks explain the low throughput; P is not to blame."""
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=5.0)
        snapshot = make_snapshot(
            processing_rate_mb=2.0, running_tasks=2, task_count=4,
            time_lagged=500.0,
        )
        assert not analyzer.observe_saturated_throughput(snapshot)
        assert analyzer.rate_per_thread("job", 5.0) == 5.0

    def test_persistent_lag_with_full_tasks_lowers_p(self):
        """An over-estimated P hides a capacity shortage as 'untriaged';
        a *streak* of saturated-lag observations pulls the estimate down."""
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=4.0)
        snapshot = make_snapshot(
            processing_rate_mb=8.0, running_tasks=4, task_count=4,
            time_lagged=500.0,  # >> 2x the 90 s SLO
        )
        assert not analyzer.observe_saturated_throughput(snapshot)
        assert not analyzer.observe_saturated_throughput(snapshot)
        assert analyzer.rate_per_thread("job", 4.0) == 4.0, "not yet"
        assert analyzer.observe_saturated_throughput(snapshot)
        # Pulled to the midpoint of (4.0, observed 2.0) on the 3rd strike.
        assert analyzer.rate_per_thread("job", 4.0) == pytest.approx(3.0)

    def test_streak_resets_on_healthy_reading(self):
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=4.0)
        lagging = make_snapshot(
            processing_rate_mb=8.0, running_tasks=4, task_count=4,
            time_lagged=500.0,
        )
        healthy = make_snapshot(
            processing_rate_mb=8.0, running_tasks=4, task_count=4,
            time_lagged=0.0,
        )
        analyzer.observe_saturated_throughput(lagging)
        analyzer.observe_saturated_throughput(lagging)
        analyzer.observe_saturated_throughput(healthy)  # resets the streak
        analyzer.observe_saturated_throughput(lagging)
        analyzer.observe_saturated_throughput(lagging)
        assert analyzer.rate_per_thread("job", 4.0) == 4.0

    def test_saturation_of_unknown_job_ignored(self):
        analyzer = PatternAnalyzer(MetricStore())
        assert not analyzer.observe_saturated_throughput(make_snapshot())

    def test_slo_violation_after_downscale_lowers_p(self):
        """"the estimated value of P must have been greater than the actual
        max throughput and P needs to be adjusted to a value between X/n
        and P"."""
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=4.0)
        before = make_snapshot(time=1000.0, task_count=8)
        analyzer.record_downscale(before, new_count=4)
        after = make_snapshot(
            time=1500.0, task_count=4, input_rate_mb=8.0, time_lagged=200.0
        )
        attributed = analyzer.observe_slo_violation(after)
        assert attributed
        new_p = analyzer.rate_per_thread("job", 4.0)
        floor = 8.0 / 4  # X/n with k=1
        assert floor < new_p < 4.0

    def test_old_downscale_not_blamed(self):
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=4.0)
        analyzer.record_downscale(make_snapshot(time=0.0), new_count=2)
        late = make_snapshot(time=10000.0, time_lagged=500.0)
        assert not analyzer.observe_slo_violation(late)

    def test_violation_without_downscale_not_attributed(self):
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=4.0)
        assert not analyzer.observe_slo_violation(make_snapshot(time_lagged=500.0))


class TestHistoricalValidation:
    def test_flat_history_allows_downscale(self):
        analyzer, __, now = analyzer_with_history(days=3, rate=4.0)
        analyzer.rate_per_thread("job", bootstrap=2.0)
        snapshot = make_snapshot(time=now, task_count=8, input_rate_mb=4.0)
        verdict = analyzer.validate_downscale(snapshot, new_task_count=3)
        assert verdict.allowed

    def test_daily_peak_vetoes_downscale(self):
        """"it verifies that this reduction will not cause another round of
        updates in the next x hours" — a peak within the validation window
        in prior days blocks the shrink."""
        analyzer, __, now = analyzer_with_history(
            days=3, rate=4.0, peak_rate=20.0, peak_hour=1.0,
        )
        analyzer.rate_per_thread("job", bootstrap=2.0)
        # It is midnight; the peak arrives at 01:00, inside the 4 h window.
        snapshot = make_snapshot(time=now, task_count=12, input_rate_mb=4.0)
        verdict = analyzer.validate_downscale(snapshot, new_task_count=3)
        assert not verdict.allowed
        assert "peak" in verdict.reason

    def test_peak_outside_window_ignored(self):
        analyzer, __, now = analyzer_with_history(
            days=3, rate=4.0, peak_rate=20.0, peak_hour=8.0,
        )
        analyzer.rate_per_thread("job", bootstrap=2.0)
        # Peak at 08:00 is outside the default 4-hour validation window.
        snapshot = make_snapshot(time=now, task_count=12, input_rate_mb=4.0)
        verdict = analyzer.validate_downscale(snapshot, new_task_count=3)
        assert verdict.allowed

    def test_outlier_traffic_disables_history(self):
        """Current traffic far from the same window in prior days →
        pattern-based decisions disabled (conservative veto)."""
        metrics = MetricStore()
        metrics.retain("input_rate_mb", 15 * DAY)
        now = 3 * DAY
        t = 0.0
        while t <= now:
            # History at 4 MB/s; last 30 minutes spike to 40 MB/s.
            value = 40.0 if t > now - 1800.0 else 4.0
            metrics.record("job", "input_rate_mb", t, value)
            t += 60.0
        analyzer = PatternAnalyzer(metrics)
        analyzer.rate_per_thread("job", bootstrap=2.0)
        snapshot = make_snapshot(time=now, task_count=30, input_rate_mb=40.0)
        verdict = analyzer.validate_downscale(snapshot, new_task_count=25)
        assert not verdict.allowed
        assert "disabled" in verdict.reason

    def test_young_job_without_history_uses_estimate(self):
        analyzer = PatternAnalyzer(MetricStore())
        analyzer.rate_per_thread("job", bootstrap=2.0)
        snapshot = make_snapshot(time=100.0, task_count=8, input_rate_mb=4.0)
        ok = analyzer.validate_downscale(snapshot, new_task_count=3)
        assert ok.allowed  # 3 tasks * 2 MB/s = 6 > 4
        too_far = analyzer.validate_downscale(snapshot, new_task_count=1)
        assert not too_far.allowed  # 1 task * 2 = 2 < 4
