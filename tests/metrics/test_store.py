"""Unit tests for the MetricStore."""

import math

import pytest

from repro.metrics import MetricStore
from repro.metrics.store import DEFAULT_RETENTION


def test_series_created_on_first_use():
    store = MetricStore()
    assert "input_rate" not in store.row("job-a")
    store.record("job-a", "input_rate", 0.0, 1.0)
    column = store.row("job-a")["input_rate"]
    assert len(column) == 1
    store.record("job-a", "input_rate", 60.0, 2.0)
    assert store.row("job-a")["input_rate"] is column and len(column) == 2


def test_record_and_latest():
    store = MetricStore()
    store.record("job-a", "input_rate", 10.0, 100.0)
    assert store.latest("job-a", "input_rate") == 100.0


def test_latest_missing_is_none():
    assert MetricStore().latest("nope", "nope") is None


def test_entities_are_isolated():
    store = MetricStore()
    store.record("job-a", "input_rate", 0.0, 1.0)
    store.record("job-b", "input_rate", 0.0, 2.0)
    assert store.latest("job-a", "input_rate") == 1.0
    assert store.latest("job-b", "input_rate") == 2.0


def test_entities_with_metric_sorted():
    store = MetricStore()
    store.record("zeta", "lag", 0.0, 1.0)
    store.record("alpha", "lag", 0.0, 1.0)
    store.record("alpha", "other", 0.0, 1.0)
    assert store.entities_with("lag") == ["alpha", "zeta"]


def test_drop_entity():
    store = MetricStore()
    store.record("job-a", "lag", 0.0, 1.0)
    store.record("job-a", "rate", 0.0, 1.0)
    store.record("job-b", "lag", 0.0, 1.0)
    store.drop_entity("job-a")
    assert store.latest("job-a", "lag") is None
    assert store.latest("job-b", "lag") == 1.0


def test_custom_retention_honored():
    store = MetricStore()
    store.retain("history", 100.0)
    store.record_row("job-a", 0.0, ("lag", "history"), (1.0, 1.0))
    assert store.row("job-a")["lag"].retention == DEFAULT_RETENTION
    assert store.row("job-a")["history"].retention == 100.0
    store.record_row("job-a", 150.0, ("lag", "history"), (2.0, 2.0))
    assert len(store.row("job-a")["lag"]) == 2
    assert store.row("job-a")["history"].all_points() == [(150.0, 2.0)]


# ----------------------------------------------------------------------
# Non-finite input never lands
# ----------------------------------------------------------------------
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_time_or_value_is_refused_and_lands_nothing(bad):
    store = MetricStore()
    store.record("j", "x", 1.0, 10.0)
    with pytest.raises(ValueError):
        store.record("j", "x", 2.0, bad)
    with pytest.raises(ValueError):
        store.record("j", "x", bad, 5.0)
    with pytest.raises(ValueError):
        store.record_row("k", 2.0, ("x", "y"), (4.0, bad))
    with pytest.raises(ValueError):
        store.record_row("j", 2.0, ("x", "y"), (4.0, bad))
    with pytest.raises(ValueError):
        store.record_row("j", bad, ("x",), (4.0,))
    assert store.row("k") == {} and "y" not in store.row("j")
    store.record("j", "x", 3.0, 5.0)
    column = store.row("j")["x"]
    assert column.all_points() == [(1.0, 10.0), (3.0, 5.0)]
    assert column.average_over(100.0, 10.0) == 7.5
    assert store.samples_ingested == 2


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_a_retention_that_is_not_positive_and_finite_is_refused(bad):
    with pytest.raises(ValueError):
        MetricStore().retain("x", bad)


def test_a_row_naming_a_metric_twice_is_refused():
    store = MetricStore()
    with pytest.raises(ValueError):
        store.record_row("j", 1.0, ("x", "y", "x"), (1.0, 2.0, 3.0))
    assert store.row("j") == {}


def test_an_out_of_order_batch_lands_nothing():
    store = MetricStore()
    store.record("late", "x", 10.0, 1.0)
    with pytest.raises(ValueError):
        store.record_row("late", 5.0, ("y", "x"), (1.0, 2.0))
    assert sorted(store.row("late")) == ["x"] and len(store.row("late")["x"]) == 1
    assert store.samples_ingested == 1 and store.batches_ingested == 1


# ----------------------------------------------------------------------
# The per-entity row (one lookup per job per reader per round)
# ----------------------------------------------------------------------
def test_row_is_every_series_of_the_entity_by_metric():
    store = MetricStore()
    store.record("job-a", "lag", 0.0, 1.0)
    store.record("job-a", "rate", 60.0, 2.0)
    store.record("job-b", "lag", 60.0, 3.0)
    row = store.row("job-a")
    assert sorted(row) == ["lag", "rate"]
    assert row["lag"].all_points() == [(0.0, 1.0)]
    assert row.get("rate").latest() == 2.0
    assert row.get("nope") is None


def test_row_of_an_unknown_entity_is_empty_and_creates_nothing():
    store = MetricStore()
    row = store.row("ghost")
    assert len(row) == 0 and row.get("lag") is None
    assert store._rows == {}
    assert store.entities_with("lag") == []
    with pytest.raises(TypeError):
        row["lag"] = None  # the shared empty row is read-only


def test_row_sees_exactly_what_writes_landed():
    """Exact under an outage (no ingest, no change), for a metric written
    later, and across ``drop_entity``."""
    store = MetricStore()
    store.record("job", "lag", 0.0, 1.0)
    row = store.row("job")
    store.fail()
    store.record("job", "lag", 60.0, 9.0)
    store.record("job", "rate", 60.0, 9.0)
    assert row["lag"].latest() == 1.0 and "rate" not in row
    store.recover()
    store.record("job", "rate", 120.0, 4.0)
    assert row["rate"].latest() == 4.0  # the live mapping, not a copy
    store.drop_entity("job")
    assert len(store.row("job")) == 0
    store.record("job", "lag", 180.0, 5.0)
    assert [s.latest() for s in store.row("job").values()] == [5.0]


# ----------------------------------------------------------------------
# One landing body: ``record`` is a one-metric ``record_row``
# ----------------------------------------------------------------------
class CountingSink:
    """A duck-typed telemetry sink: counter name -> total."""

    def __init__(self):
        self.counters = {}

    def inc(self, name, amount=1.0):
        self.counters[name] = self.counters.get(name, 0.0) + amount


@pytest.mark.parametrize("spelling", ["record", "record_row"])
def test_every_landed_sample_is_counted_the_same_way(spelling):
    """A sample ``record`` lands moves ``samples_ingested``,
    ``batches_ingested`` and both ``metrics.ingest.*`` counters exactly as
    a one-metric ``record_row`` does, and an outage drops it into the same
    ``dropped_points``."""
    store = MetricStore()
    sink = CountingSink()
    store.set_telemetry(sink)

    def write(time, value):
        if spelling == "record":
            return store.record("e", "m", time, value)
        return store.record_row("e", time, ("m",), (value,))

    landed = [write(0.0, 1.0)]
    store.fail()
    landed.append(write(60.0, 2.0))
    store.recover()
    landed.append(write(120.0, 3.0))
    assert (store.samples_ingested, store.batches_ingested) == (2, 2)
    assert store.dropped_points == 1
    assert sink.counters == {
        "metrics.ingest.batches": 2.0, "metrics.ingest.samples": 2.0,
    }
    assert store.row("e")["m"].all_points() == [(0.0, 1.0), (120.0, 3.0)]
    assert landed == [1, 0, 1]


def test_indexes_follow_drop_entity():
    store = MetricStore()
    store.record_row("a", 0.0, ("cpu", "mem"), (1.0, 3.0))
    store.record("b", "cpu", 0.0, 2.0)
    assert store.entities_with("cpu") == ["a", "b"]
    store.drop_entity("a")
    assert store.entities_with("cpu") == ["b"]
    assert store.entities_with("mem") == []
    assert store.latest("a", "cpu") is None
