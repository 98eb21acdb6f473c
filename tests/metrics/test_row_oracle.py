"""The metric row against its oracle, the per-metric store, past what
the whole-platform twin reaches.

``repro.metrics.MetricStore`` keeps an entity's metrics as one row: one
time column, one value column per metric, NaN where a metric is absent
from a slot, each column trimmed at its own retention.
``repro.testing.reference.PerMetricStore`` keeps one ``TimeSeries`` per
(entity, metric), each with its own time array. The twin
(``tests/integration/test_reference_twin.py``) builds every drill and
workload on the per-metric store; no run there lasts two days. Here both
are driven with stats-collector-shaped writes for 40 days, so both
retentions trim and compact, and every read must agree bit for bit.
"""

import tracemalloc

from repro.metrics import MetricStore
from repro.tasks.stats import INPUT_RATE_RETENTION, ROW_METRICS
from repro.testing.reference import PerMetricStore
from tests.metrics.helpers import compactions_per_column

DAY = 86400.0
SPARSE = ("oom_events", "recovery_lag")
METRICS = ROW_METRICS + SPARSE
ENTITIES = ("job-a", "job-b", "job-c")


def bits(result):
    """Every float as its exact bits (``-0.0`` is not ``0.0``)."""
    if isinstance(result, float):
        return result.hex()
    if isinstance(result, (list, tuple)):
        return [bits(item) for item in result]
    return result


def both(store_pair, method, *args):
    for store in store_pair:
        getattr(store, method)(*args)


def collector_round(store_pair, now, interval, plan, first):
    """What ``JobStatsCollector._collect_job`` writes for each job, plus
    the Task Managers' sparse samples before the next round."""
    for entity in ENTITIES:
        job = plan[entity]
        if not job["specs"]:
            continue
        input_rate, processing, lagged, running = job["rates"]
        values = [None, None, None, lagged, float(int(running) % 9), job["stdev"]]
        if entity not in first:
            values[0] = input_rate
            if job["zero_rate"]:
                both(store_pair, "record", entity, "processing_rate_mb", now, 0.0)
            else:
                values[1] = processing
            values[2] = lagged / max(processing, 1.0)
        first.discard(entity)
        both(store_pair, "record_row", entity, now, ROW_METRICS, tuple(values))
        if job["recovery"] is not None:
            both(store_pair, "record", entity, "recovery_lag", now, job["recovery"])
        if job["oom"] is not None:
            at = now + job["oom"] * interval
            both(store_pair, "record", entity, "oom_events", at, 1.0)
            both(store_pair, "record", entity, "oom_events", at, 1.0)


def assert_same_reads(row_store, oracle, now, interval):
    windows = [(now - span, now) for span in (0.0, interval, 15 * interval, 2 * DAY, 16 * DAY)]
    windows.append((now - 3 * interval, now - interval))
    for entity in ENTITIES + ("ghost",):
        row, reference = row_store.row(entity), oracle.row(entity)
        assert sorted(row) == sorted(reference), entity
        for metric in METRICS:
            assert bits(row_store.latest(entity, metric)) == bits(
                oracle.latest(entity, metric)
            )
            if metric not in reference:
                continue
            column, series = row[metric], reference[metric]
            assert column.retention == series.retention
            pair = (column, series)
            assert len(column) == len(series)
            for read in ("latest", "latest_time", "earliest_time", "all_points"):
                assert bits(getattr(column, read)()) == bits(getattr(series, read)())
            for start, end in windows:
                for read in (
                    "window", "values_in", "aggregate_between", "max_between",
                    "count_between",
                ):
                    got, want = (getattr(s, read)(start, end) for s in pair)
                    assert bits(got) == bits(want), (entity, metric, read, start, end)
                assert bits(column.earliest_time(start)) == bits(
                    series.earliest_time(start)
                )
                assert bits(column.average_over(end - start, end)) == bits(
                    series.average_over(end - start, end)
                )
    for metric in METRICS:
        assert row_store.entities_with(metric) == oracle.entities_with(metric)


def run(plans, interval, read_every):
    """Drive both stores through ``plans`` (one per round) and compare
    every read every ``read_every`` rounds and after the last."""
    row_store, oracle = MetricStore(), PerMetricStore()
    store_pair = (row_store, oracle)
    both(store_pair, "retain", "input_rate_mb", INPUT_RATE_RETENTION)
    first = set(ENTITIES)
    for index, plan in enumerate(plans):
        now = index * interval
        collector_round(store_pair, now, interval, plan, first)
        if index % read_every == 0 or index == len(plans) - 1:
            assert_same_reads(row_store, oracle, now, interval)
    assert row_store.dropped_points == oracle.dropped_points
    return row_store


def steady_plan(days, interval):
    """A job that is always there and never dropped: every round full."""
    job = {
        "specs": True, "rates": (3.0, 2.5, 7.0, 4.0), "zero_rate": False,
        "stdev": 0.5, "oom": None, "recovery": None,
    }
    count = int(days * DAY / interval)
    plans = []
    for index in range(count):
        plan = {entity: dict(job) for entity in ENTITIES}
        # An intermittent stdev, a zero rate and one early OOM on job-b.
        plan["job-b"]["stdev"] = None if index % 3 else 1.5
        plan["job-b"]["zero_rate"] = index % 5 == 0
        plan["job-b"]["oom"] = 0.5 if index == 3 else None
        plans.append(plan)
    return plans


def test_both_retentions_trim_and_compact_under_the_same_reads():
    """40 days of 2-hour rounds: the 2-day columns compact many times,
    ``input_rate_mb`` past 15 days too, and the time column drops the
    slots no column covers any more — except under job-b's one early OOM,
    which keeps its own two slots as its series keeps its two samples."""
    with compactions_per_column() as compactions:
        store = run(steady_plan(40, 2 * 3600.0), 2 * 3600.0, read_every=25)
    for entity in ENTITIES:
        row = store._rows[entity]
        assert compactions[id(row.columns["input_rate_mb"])] >= 1
        assert compactions[id(row.columns["bytes_lagged_mb"])] >= 3
        assert row.times.compactions == sum(
            compactions[id(column)] for column in row.columns.values()
        )
        assert len(row.times) < 2 * 16 * 12  # about 15 days of rounds
    assert store.row("job-b")["oom_events"].all_points() == [(7.0 * 3600.0, 1.0)] * 2


# ----------------------------------------------------------------------
# The layout itself: one time column a row
# ----------------------------------------------------------------------
def test_a_round_appends_one_time_per_entity():
    """Six metrics landed at one ``now`` take one time slot, shared by
    their six columns — in one row or one ``record`` a metric."""
    store = MetricStore()
    for minute in range(1, 11):
        now = minute * 60.0
        store.record_row("a", now, ROW_METRICS, (1.0,) * len(ROW_METRICS))
        for metric in ROW_METRICS:
            store.record("c", metric, now, 1.0)
    for entity in "ac":
        row = store._rows[entity]
        assert len(row.times) == 10
        assert all(column._times is row.times for column in row.columns.values())


def test_a_six_metric_round_costs_eight_bytes_of_time_and_eight_a_column():
    """Four days of six-metric rounds for one entity: 8 bytes of time plus
    6 x 8 of values, 56 bytes a round (a time array per metric: 96). The
    guard leaves room for the arrays' over-allocation and nothing else."""
    rounds = 4 * 24 * 60
    tracemalloc.start()
    try:
        store = MetricStore()
        for metric in ROW_METRICS:
            store.retain(metric, INPUT_RATE_RETENTION)
        before = tracemalloc.get_traced_memory()[0]
        values = (1.0,) * len(ROW_METRICS)
        for minute in range(rounds):
            store.record_row("job", minute * 60.0, ROW_METRICS, values)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / rounds <= 64.0
    assert sum(len(c) for c in store.row("job").values()) == rounds * len(ROW_METRICS)
