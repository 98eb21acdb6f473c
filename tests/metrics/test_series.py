"""Unit tests for a metric row's columns, each read like a time series."""

import math
import operator
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.metrics import MetricStore
from repro.testing.reference import TimeSeries
from tests.metrics.helpers import compactions_per_column


class Series:
    """One metric of one entity in a fresh store: records through
    ``MetricStore.record`` and reads off the entity's column."""

    def __init__(self, retention=None):
        self.store = MetricStore()
        if retention is not None:
            self.store.retain("metric", retention)

    def record(self, time, value):
        self.store.record("entity", "metric", time, value)

    def __getattr__(self, name):
        return getattr(self.store.row("entity")["metric"], name)

    def __len__(self):
        return len(self.store.row("entity")["metric"])


def test_starts_empty():
    store = MetricStore()
    assert store.row("entity").get("metric") is None
    assert store.latest("entity", "metric") is None


def test_record_and_latest():
    series = Series()
    series.record(1.0, 10.0)
    series.record(2.0, 20.0)
    assert series.latest() == 20.0
    assert series.latest_time() == 2.0


def test_out_of_order_rejected():
    series = Series()
    series.record(5.0, 1.0)
    with pytest.raises(ValueError):
        series.record(4.0, 1.0)
    # Time order is the entity's: another metric cannot go back either.
    with pytest.raises(ValueError):
        series.store.record("entity", "other", 4.0, 1.0)
    assert series.all_points() == [(5.0, 1.0)]


def test_same_time_allowed():
    series = Series()
    series.record(5.0, 1.0)
    series.record(5.0, 2.0)
    assert len(series) == 2
    assert series.all_points() == [(5.0, 1.0), (5.0, 2.0)]


def test_window_inclusive():
    series = Series()
    for t in range(10):
        series.record(float(t), float(t * 10))
    window = series.window(3.0, 5.0)
    assert [t for t, __ in window] == [3.0, 4.0, 5.0]


def test_values_in():
    series = Series()
    for t in range(10):
        series.record(float(t), float(t))
    assert series.values_in(7.0, 9.0) == [7.0, 8.0, 9.0]


def test_average_over_trailing_window():
    series = Series()
    series.record(0.0, 100.0)
    series.record(50.0, 10.0)
    series.record(60.0, 20.0)
    assert series.average_over(15.0, now=60.0) == pytest.approx(15.0)


def test_average_over_empty_window_is_none():
    series = Series()
    series.record(0.0, 1.0)
    assert series.average_over(5.0, now=100.0) is None


def test_retention_trims_old_samples():
    series = Series(retention=10.0)
    for t in range(30):
        series.record(float(t), float(t))
    times = [t for t, __ in series.all_points()]
    assert min(times) >= 29.0 - 10.0
    assert max(times) == 29.0


def test_no_retention_keeps_everything():
    """Nothing trims inside the retention horizon (every column has one)."""
    series = Series(retention=1e6)
    for t in range(1000):
        series.record(float(t), 0.0)
    assert len(series) == 1000


def test_invalid_retention_rejected():
    for retention in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError):
            MetricStore().retain("metric", retention)


# ----------------------------------------------------------------------
# Reads that take no sum
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "values, expected_max",
    [([1e308, 1e308], 1e308), ([math.inf, -math.inf], math.inf)],
)
def test_counting_and_max_take_no_sum(values, expected_max):
    """``count_between`` and ``max_between`` read no sum, so samples that
    overflow ``math.fsum`` (``OverflowError``) still count and still have
    a max. Infinities never reach a column (the store refuses them); the
    per-metric reference reads them without a sum too."""
    reference = TimeSeries()
    for t, value in enumerate(values):
        reference.record(float(t), value)
    series = Series()
    if all(map(math.isfinite, values)):
        for t, value in enumerate(values):
            series.record(float(t), value)
        readers = (reference, series)
    else:
        with pytest.raises(ValueError):
            series.record(0.0, values[0])
        readers = (reference,)
    for reader in readers:
        assert reader.count_between(0.0, 10.0) == len(values)
        assert reader.max_between(0.0, 10.0) == expected_max
        assert reader.count_between(20.0, 30.0) == 0
        assert reader.max_between(20.0, 30.0) is None


# ----------------------------------------------------------------------
# Oracle: every read equals the same read over a plain list
# ----------------------------------------------------------------------
#: Values whose storage is easy to get wrong: signed zero, subnormals,
#: NaN, infinities, a sum that overflows, and ints / bools, which must
#: convert exactly as ``float(value)`` does (``2**53 + 1`` rounds).
SPECIAL_VALUES = [
    -0.0, 5e-324, 2.2250738585072014e-309, math.nan, math.inf, -math.inf,
    1e308, 0, 7, -3, 2**53 + 1, True, False,
]
#: Mixed magnitudes make float non-associativity visible: a left-to-right
#: sum of these streams differs from ``math.fsum`` in the last bits.
samples = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=3.0)),
    st.one_of(
        st.builds(
            operator.mul,
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False,
                      allow_subnormal=False),
            st.sampled_from([1.0, 1e-8, 1e8]),
        ),
        st.sampled_from(SPECIAL_VALUES),
    ),
)
STREAM_LENGTH = 600


def plain_reads(points, start, end):
    """The retained samples with ``start <= time <= end``, from a list."""
    return [(t, v) for t, v in points if start <= t <= end]


def bits(result):
    """``result`` with every float as its exact bits (``-0.0`` is not
    ``0.0``, and one NaN equals another). Exact types, not ``isinstance``:
    this runs a few million times a run, and every read returns plain
    lists, tuples and floats."""
    kind = type(result)
    if kind is float:
        return "nan" if result != result else result.hex()
    if kind is list or kind is tuple:
        return [bits(item) for item in result]
    return result


def outcome(read, *args):
    """What ``read(*args)`` returns, as bits, or the type it raises."""
    try:
        return bits(read(*args))
    except (OverflowError, ValueError) as error:
        return type(error)


def assert_floats(points):
    assert type(points) is list
    for item in points:
        for number in item if isinstance(item, tuple) else (item,):
            assert type(number) is float


def fsum_mean(values):
    return math.fsum(values) / len(values) if values else None


def fsum_aggregate(values):
    return (math.fsum(values), len(values), max(values)) if values else (0.0, 0, None)


@settings(max_examples=30, deadline=None)
@given(
    motif=st.lists(samples, min_size=1, max_size=30),
    retention=st.sampled_from([4.0, 15.0, 30.0]),
    durations=st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=3),
    offsets=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1, max_size=3),
)
def test_every_read_equals_a_plain_list_of_the_retained_samples(
    motif, retention, durations, offsets
):
    """The motif is repeated to ``STREAM_LENGTH`` samples, enough for
    retention to retire most of them and the columns to compact at least
    three times under the reads (when at least half the samples are
    finite). The reference series takes every sample;
    two columns of one store take the finite ones — one through
    ``record``, one through ``record_row`` with another metric written
    between every other pair of its samples (so it reads across NaN
    pads) — and refuse the rest. Each must read as the plain list of what
    it took, bit for bit, raising where the list's read raises, and hand
    out lists of floats."""
    assume(sum(dt for dt, __ in motif) >= 0.5 * len(motif))
    reference = TimeSeries(retention=retention)
    store = MetricStore()
    store.retain("metric", retention)
    every, finite = [], []
    taken = 0
    now = 0.0
    with compactions_per_column() as compactions:
        for index in range(STREAM_LENGTH):
            dt, value = motif[index % len(motif)]
            before, now = now, now + dt
            reference.record(now, value)
            every.append((now, float(value)))
            every = [(t, v) for t, v in every if t >= now - retention]
            if math.isfinite(value):
                store.record("one", "metric", now, value)
                if index % 2:
                    store.record("row", "other", (before + now) / 2, 1.0)
                store.record_row("row", now, ("metric",), (value,))
                finite.append((now, float(value)))
                taken += 1
                finite = [(t, v) for t, v in finite if t >= now - retention]
            else:
                for write in (
                    lambda: store.record("one", "metric", now, value),
                    lambda: store.record_row("row", now, ("metric",), (value,)),
                ):
                    with pytest.raises(ValueError):
                        write()
            readers = [(reference, every)]
            if finite:
                # The padded column every step, the other every tenth.
                entities = ("row", "one") if index % 10 == 0 else ("row",)
                readers += [(store.row(e)["metric"], finite) for e in entities]
            for series, plain in readers:
                assert len(series) == len(plain)
                assert bits(series.latest()) == bits(plain[-1][1])
                assert series.latest_time() == plain[-1][0]
                assert series.earliest_time() == plain[0][0]
                assert_floats(series.all_points())
                assert bits(series.all_points()) == bits(plain)
                for offset in offsets:
                    at = now + offset
                    for duration in durations:
                        start = at - duration
                        window = plain_reads(plain, start, at)
                        values = [v for __, v in window]
                        assert_floats(series.window(start, at))
                        assert_floats(series.values_in(start, at))
                        assert bits(series.window(start, at)) == bits(window)
                        assert bits(series.values_in(start, at)) == bits(values)
                        assert series.earliest_time(start) == next(
                            (t for t, __ in plain if t >= start), None
                        )
                        assert outcome(series.average_over, duration, at) == (
                            outcome(fsum_mean, values)
                        )
                        assert outcome(series.aggregate_between, start, at) == (
                            outcome(fsum_aggregate, values)
                        )
                        assert bits(series.max_between(start, at)) == bits(
                            max(values) if values else None
                        )
                        assert series.count_between(start, at) == len(values)
    assert reference.compactions >= 3
    if taken >= STREAM_LENGTH // 2:
        for entity in ("one", "row"):
            assert compactions[id(store.row(entity)["metric"])] >= 3


# ----------------------------------------------------------------------
# Footprint: retained history is the state that grows with simulated time
# ----------------------------------------------------------------------
#: 14 days of per-minute samples: what the pattern analyzer reads
#: (paper section V-C).
FOURTEEN_DAYS_OF_MINUTES = 14 * 24 * 60


@pytest.mark.parametrize("path", ["record", "record_row"])
def test_a_retained_sample_costs_at_most_twenty_bytes(path):
    """A one-metric row is two packed doubles a sample, 16 bytes; a list
    slot per axis plus a boxed value would cost ≈ 40 to 64. Both entry
    points land the same row.
    The guard leaves room for the arrays' over-allocation and nothing
    else."""
    tracemalloc.start()
    try:
        store = MetricStore()
        store.retain("input_rate_mb", 15 * 86400.0)
        before = tracemalloc.get_traced_memory()[0]
        for minute in range(FOURTEEN_DAYS_OF_MINUTES):
            time, value = minute * 60.0, 3.0 + minute * 1e-3
            if path == "record":
                store.record("job", "input_rate_mb", time, value)
            else:
                store.record_row("job", time, ("input_rate_mb",), (value,))
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(store.row("job")["input_rate_mb"]) == FOURTEEN_DAYS_OF_MINUTES
    assert grown / FOURTEEN_DAYS_OF_MINUTES <= 20.0
