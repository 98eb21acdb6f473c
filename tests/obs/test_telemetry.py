"""Unit tests for control-plane telemetry and engine instrumentation."""

import pytest

from repro.obs.bounded import BoundedList
from repro.obs.telemetry import (
    NULL_TELEMETRY,
    EngineInstrumentation,
    Histogram,
    Telemetry,
    is_deterministic_instrument,
)
from repro.sim.engine import Engine


class TestInstruments:
    def test_counters_accumulate(self):
        telemetry = Telemetry()
        telemetry.inc("x")
        telemetry.inc("x", 2.0)
        assert telemetry.counter("x") == 3.0
        assert telemetry.counter("missing") == 0.0

    def test_gauge_tracks_extremes(self):
        telemetry = Telemetry()
        for value in (5.0, 1.0, 9.0):
            telemetry.set_gauge("depth", value)
        gauge = telemetry.gauges["depth"]
        assert gauge.value == 9.0
        assert gauge.min_value == 1.0
        assert gauge.max_value == 9.0
        assert gauge.updates == 3

    def test_histogram_quantiles(self):
        histogram = Histogram(bounds=(1.0, 10.0, 100.0))
        for value in (0.5, 0.6, 5.0, 50.0):
            histogram.observe(value)
        assert histogram.count == 4
        assert histogram.quantile(0.5) == 1.0
        assert histogram.quantile(0.95) == 100.0
        assert histogram.mean == pytest.approx(14.025)

    def test_disabled_records_nothing(self):
        NULL_TELEMETRY.inc("x")
        NULL_TELEMETRY.set_gauge("g", 1.0)
        NULL_TELEMETRY.observe("h", 1.0)
        assert NULL_TELEMETRY.counters == {}
        assert NULL_TELEMETRY.gauges == {}
        assert NULL_TELEMETRY.histograms == {}

    def test_snapshot_and_jsonl(self):
        telemetry = Telemetry()
        telemetry.inc("c")
        telemetry.set_gauge("g", 2.0)
        telemetry.observe("h", 3.0)
        snapshot = telemetry.snapshot()
        assert snapshot["counters"] == {"c": 1.0}
        assert snapshot["gauges"]["g"]["value"] == 2.0
        assert snapshot["histograms"]["h"]["count"] == 1
        lines = telemetry.to_jsonl().splitlines()
        assert len(lines) == 3

    def test_slo_and_sli_instruments_are_deterministic(self):
        # The SLO plane derives everything from simulated metrics, so its
        # instruments belong in the byte-identical deterministic export —
        # except wall-clock timings, which never do.
        assert is_deterministic_instrument("slo.evals")
        assert is_deterministic_instrument("slo.alerts.page")
        assert is_deterministic_instrument("sli.fleet.jobs_lagging")
        assert not is_deterministic_instrument("slo.eval_wall_ms")
        assert not is_deterministic_instrument("sli.read_ms")
        # The existing exclusions stay excluded.
        assert not is_deterministic_instrument("cache.hits")
        assert not is_deterministic_instrument("metrics.ingest.batches")

    def test_deterministic_jsonl_includes_slo_gauges(self):
        telemetry = Telemetry()
        telemetry.inc("slo.evals")
        telemetry.set_gauge("sli.fleet.jobs_total", 3.0)
        telemetry.inc("slo.eval_wall_ms", 1.5)
        text = telemetry.to_jsonl(deterministic=True)
        assert "slo.evals" in text
        assert "sli.fleet.jobs_total" in text
        assert "eval_wall_ms" not in text


class TestEngineInstrumentation:
    def test_timer_fires_are_counted(self):
        telemetry = Telemetry()
        engine = Engine()
        engine.instrumentation = EngineInstrumentation(telemetry)
        fired = []
        engine.every(10.0, lambda: fired.append(1), name="poller")
        engine.run_for(35.0)
        assert len(fired) == 3
        assert telemetry.counter("timer.poller.fires") == 3
        assert telemetry.histograms["timer.poller.wall_ms"].count == 3
        assert telemetry.counter("engine.events") == 3
        assert "engine.queue_depth" in telemetry.gauges

    def test_plain_callbacks_use_generic_histogram(self):
        telemetry = Telemetry()
        engine = Engine()
        engine.instrumentation = EngineInstrumentation(telemetry)
        engine.call_in(1.0, lambda: None)
        engine.run_for(2.0)
        assert telemetry.histograms["engine.callback_wall_ms"].count == 1

    def test_exceptions_still_recorded(self):
        telemetry = Telemetry()
        engine = Engine()
        engine.instrumentation = EngineInstrumentation(telemetry)

        def boom():
            raise ValueError("bad callback")

        engine.call_in(1.0, boom)
        with pytest.raises(ValueError):
            engine.run_for(2.0)
        assert telemetry.counter("engine.events") == 1

    def test_uninstrumented_engine_has_no_hook(self):
        engine = Engine()
        assert engine.instrumentation is None


class TestBoundedList:
    def test_behaves_like_a_list(self):
        items = BoundedList(maxlen=100)
        assert items == []
        items.append(1)
        items.extend([2, 3])
        assert items == [1, 2, 3]
        assert items[-1] == 3
        assert items[0:2] == [1, 2]

    def test_eviction_keeps_newest(self):
        items = BoundedList(maxlen=10)
        for index in range(25):
            items.append(index)
        assert len(items) <= 10
        assert items[-1] == 24
        assert items == sorted(items)

    def test_rejects_non_positive_cap(self):
        with pytest.raises(ValueError):
            BoundedList(maxlen=0)
