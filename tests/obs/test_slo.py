"""Unit tests for the SLO tracker: budgets, burn rates, breach windows."""

from unittest import mock

import pytest

import repro.obs.slo
from repro.metrics.store import MetricStore
from repro.obs.sli import SliEvaluator
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    EVAL_INTERVAL,
    BurnRateRule,
    SloSpec,
    SloTracker,
    default_slo_specs,
)
from repro.sim.engine import Engine
from repro.testing.reference import TimeSeries, bad_fraction, burn_rate
from repro.types import JobState

from tests.obs.test_sli import Jobs


class TestSpecValidation:
    def test_target_must_be_fraction(self):
        with pytest.raises(ValueError, match="target"):
            SloSpec("x", "lag_seconds", target=1.0, compliance_window=60.0)
        with pytest.raises(ValueError, match="target"):
            SloSpec("x", "lag_seconds", target=0.0, compliance_window=60.0)

    def test_sli_must_be_known(self):
        with pytest.raises(ValueError, match="unknown SLI"):
            SloSpec("x", "latency_p99", target=0.99, compliance_window=60.0)

    def test_comparator_must_be_known(self):
        with pytest.raises(ValueError, match="comparator"):
            SloSpec("x", "lag_seconds", target=0.99,
                    compliance_window=60.0, comparator="<")

    def test_budget_fraction_and_is_good(self):
        spec = SloSpec("x", "availability", target=0.99,
                       compliance_window=60.0, threshold=0.9,
                       comparator=">=")
        assert spec.budget_fraction == pytest.approx(0.01)
        assert spec.is_good(0.95, 0.9)
        assert not spec.is_good(0.5, 0.9)

    def test_burn_rule_windows_ordered(self):
        with pytest.raises(ValueError, match="short window"):
            BurnRateRule(300.0, 3600.0, 14.4, "page")

    def test_default_specs_cover_every_severity_surface(self):
        specs = default_slo_specs()
        assert {spec.sli for spec in specs} == {
            "lag_seconds", "freshness_seconds", "availability", "oom_rate",
            "task.recovery_lag",
        }
        assert all(spec.runbook for spec in specs)


class TestBurnMath:
    def test_bad_fraction_empty_series_is_zero(self):
        assert bad_fraction(TimeSeries(), 3600.0, now=0.0) == 0.0
        assert bad_fraction(None, 3600.0, now=0.0) == 0.0

    def test_burn_rate_scales_by_budget(self):
        series = TimeSeries()
        # Half the samples bad over the window.
        for minute in range(10):
            series.record(minute * 60.0, 1.0 if minute % 2 else 0.0)
        now = 9 * 60.0
        frac = bad_fraction(series, 600.0, now)
        assert frac == pytest.approx(0.5)
        assert burn_rate(series, 600.0, now, target=0.99) == pytest.approx(50.0)


def build_tracker(lag_slo=90.0, rules=DEFAULT_BURN_RULES, specs=None):
    """A tracker over one job whose lag we set per simulated minute;
    ``rules`` stand in for the module's burn rules while it is built."""
    engine = Engine(seed=1)
    service = Jobs()
    service.add("job", {"task_count": 2, "slo": {"max_lag_seconds": lag_slo}})
    metrics = MetricStore()
    sli = SliEvaluator(service.service, metrics)
    with mock.patch.object(repro.obs.slo, "DEFAULT_BURN_RULES", rules):
        tracker = SloTracker(engine, sli, specs=specs)

    lag = {"value": 0.0}

    def feed():
        metrics.record("job", "time_lagged", engine.now, lag["value"])
        metrics.record("job", "processing_rate_mb", engine.now, 2.0)
        metrics.record("job", "running_tasks", engine.now, 2.0)

    # The feed timer is created first so it fires before the tracker's
    # evaluation at the same timestamp (engine preserves creation order).
    engine.every(EVAL_INTERVAL, feed, name="feed")
    tracker.start()
    return engine, service, metrics, tracker, lag


class TestTracker:
    def test_good_fleet_burns_nothing(self):
        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 10.0
        engine.run_for(1800.0)
        assert tracker.evaluations > 0
        assert tracker.budget_burned("job", "lag") == 0.0
        assert tracker.breaches == []
        assert tracker.alerts == []

    def test_bad_minutes_open_and_close_breach_windows(self):
        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 10.0
        engine.run_for(600.0)
        lag["value"] = 500.0  # way over the 90 s objective
        engine.run_for(300.0)
        open_breaches = [b for b in tracker.breaches if b.open]
        assert len(open_breaches) == 1
        assert open_breaches[0].slo == "lag"
        lag["value"] = 10.0
        engine.run_for(300.0)
        assert all(not b.open for b in tracker.breaches)
        closed = tracker.breaches[0]
        assert closed.duration(engine.now) > 0.0
        assert tracker.budget_burned("job", "lag") > 0.0

    def test_burn_alert_requires_both_windows(self):
        # A rule whose short window is longer than the bad burst: the
        # long window still burns but the short window has recovered,
        # so the alert must NOT fire after recovery.
        rules = (BurnRateRule(1200.0, 300.0, 10.0, "page"),)
        engine, service, metrics, tracker, lag = build_tracker(rules=rules)
        lag["value"] = 500.0
        engine.run_for(300.0)
        assert [a.severity for a in tracker.alerts] == ["page"]
        lag["value"] = 10.0
        engine.run_for(600.0)
        # Long window still remembers the burst...
        assert tracker.burn("job", "lag", 1200.0) > 10.0
        # ...but the short window is clean, so only the original alert.
        assert len(tracker.alerts) == 1

    def test_alerts_are_edge_triggered(self):
        rules = (BurnRateRule(1200.0, 300.0, 10.0, "page"),)
        engine, service, metrics, tracker, lag = build_tracker(rules=rules)
        lag["value"] = 500.0
        engine.run_for(900.0)  # burning the whole time
        assert len(tracker.alerts) == 1  # fired once, not once a minute
        alert = tracker.alerts[0]
        assert "burning" in alert.what
        assert alert.runbook  # carries the spec's runbook hint

    def test_quarantined_jobs_stop_accruing_samples(self):
        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 500.0
        engine.run_for(300.0)
        rows = tracker._ledgers["job"].times
        before = len(rows)
        service.store.set_state("job", JobState.QUARANTINED)
        engine.run_for(300.0)
        assert len(rows) == before

    def test_job_store_outage_skips_round(self):
        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 10.0
        engine.run_for(300.0)
        evals = tracker.evaluations
        service.store.fail()
        engine.run_for(300.0)
        assert tracker.evaluations == evals  # rounds skipped, no crash
        service.store.recover()
        engine.run_for(120.0)
        assert tracker.evaluations > evals

    def test_report_statuses_and_json_round_trip(self):
        import json

        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 500.0
        engine.run_for(1200.0)
        report = tracker.report()
        lag_row = next(
            row for row in report["slos"] if row["slo"] == "lag"
        )
        assert lag_row["status"] == "breached"
        assert lag_row["budget_burned"] >= 1.0
        ok_row = next(
            row for row in report["slos"] if row["slo"] == "freshness"
        )
        assert ok_row["status"] == "ok"
        parsed = json.loads(tracker.to_json())
        assert parsed["slos"] == json.loads(json.dumps(report["slos"]))

    def test_render_is_a_compliance_table(self):
        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 10.0
        engine.run_for(300.0)
        text = tracker.render()
        assert "budget burned" in text
        assert "job" in text
        assert "breach windows:" in text

    def test_identical_runs_produce_identical_json(self):
        def run():
            engine, service, metrics, tracker, lag = build_tracker()
            lag["value"] = 10.0
            engine.run_for(600.0)
            lag["value"] = 300.0
            engine.run_for(600.0)
            return tracker.to_json()

        assert run() == run()

    def test_reads_leave_the_report_byte_identical(self):
        # A read of a pair with no samples is burn 0.0 and creates nothing:
        # no permanent "ok" row appears in the export for a job never judged.
        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 500.0
        engine.run_for(600.0)
        before = tracker.to_json()
        assert tracker.burn("ghost/job", "lag", 3600.0) == 0.0
        assert tracker.budget_burned("ghost/job", "oom") == 0.0
        assert tracker.burn("job", "lag", 3600.0) > 0.0
        assert tracker.budget_burned("job", "lag") > 0.0
        assert tracker.to_json() == before
        assert "ghost/job" not in tracker._ledgers

    def test_retention_covers_the_longest_window_any_read_takes(self):
        """A 1 h compliance window must not cut the verdicts the warn
        rule's 6 h window and the report's ``burn_6h`` read: 180 bad
        minutes then 90 good ones burn 180 / 270 of the budget-fraction
        over 6 h, not 0."""
        spec = SloSpec(name="lag", sli="lag_seconds", target=0.99,
                       compliance_window=3600.0)
        engine, service, metrics, tracker, lag = build_tracker(specs=(spec,))
        lag["value"] = 500.0
        engine.run_for(180 * 60.0)
        lag["value"] = 10.0
        engine.run_for(90 * 60.0)
        [row] = tracker.report()["slos"]
        assert row["burn_6h"] == round((180 / 270) / spec.budget_fraction, 9)
        assert row["burn_6h"] == pytest.approx(66.667, abs=1e-3)
        assert row["burn_1h"] == 0.0
        assert tracker.burn("job", "lag", 21600.0) == pytest.approx(66.667, abs=1e-3)

    def test_unknown_slo_name_raises(self):
        engine, service, metrics, tracker, lag = build_tracker()
        with pytest.raises(KeyError):
            tracker.spec("latency")

    def test_duplicate_spec_names_rejected(self):
        engine = Engine(seed=1)
        sli = SliEvaluator(Jobs().service, MetricStore())
        spec = SloSpec("lag", "lag_seconds", target=0.99,
                       compliance_window=3600.0)
        with pytest.raises(ValueError, match="duplicate"):
            SloTracker(engine, sli, specs=(spec, spec))


class TestForgetJob:
    """A deleted job keeps its compliance record and loses its alert
    edges and open breaches (``SloTracker.forget_job``)."""

    @staticmethod
    def delete(service, tracker):
        service.service.deprovision("job")
        tracker.forget_job("job")

    def test_deleted_job_cannot_alert_as_its_good_samples_age_out(self):
        """Nobody writes a deleted job's series any more, so its windows
        only lose samples: with three old bad minutes keeping the 6 h
        burn up, one bad minute right before the delete would cross the
        30-minute threshold 14 minutes *after* it, as the good minutes
        in front of it age out."""
        engine, service, metrics, tracker, lag = build_tracker()
        for value, minutes in ((500.0, 3), (10.0, 42), (500.0, 1)):
            lag["value"] = value
            engine.run_for(minutes * 60.0)
        deleted_at = engine.now
        assert tracker._last_bad and ("job", "lag", 1) not in tracker._firing
        assert tracker.burn("job", "lag", 21600.0) >= 6.0  # vacuity guards
        self.delete(service, tracker)
        assert tracker.held_jobs() == set()
        engine.run_for(1800.0)
        assert tracker.burn("job", "lag", 1800.0) >= 6.0  # it did cross
        assert [a for a in tracker.alerts if a.time > deleted_at] == []
        assert [b for b in tracker.breaches if b.open] == []
        assert tracker.breaches[-1].end == deleted_at
        assert tracker.budget_burned("job", "lag") > 0.0  # the record stays

    def test_reprovisioned_id_fires_its_own_first_alert(self):
        """An edge left at "firing" by the dead job would swallow it."""
        engine, service, metrics, tracker, lag = build_tracker()
        lag["value"] = 10.0
        engine.run_for(180.0)
        lag["value"] = 500.0
        engine.run_for(120.0)
        assert [a.severity for a in tracker.alerts] == ["page", "warn"]
        self.delete(service, tracker)
        engine.run_for(1500.0)
        assert len(tracker.alerts) == 2 and not tracker.breaches[-1].open
        service.add("job", {"task_count": 2})
        engine.run_for(60.0)
        assert [a.severity for a in tracker.alerts[2:]] == ["page", "warn"]
        assert [b.open for b in tracker.breaches] == [False, True]
