"""Unit tests for TimeSeries."""

import math
import operator
import tracemalloc

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.metrics import MetricStore, TimeSeries


def test_starts_empty():
    series = TimeSeries()
    assert len(series) == 0
    assert series.latest() is None
    assert series.latest_time() is None


def test_record_and_latest():
    series = TimeSeries()
    series.record(1.0, 10.0)
    series.record(2.0, 20.0)
    assert series.latest() == 20.0
    assert series.latest_time() == 2.0


def test_out_of_order_rejected():
    series = TimeSeries()
    series.record(5.0, 1.0)
    with pytest.raises(ValueError):
        series.record(4.0, 1.0)


def test_same_time_allowed():
    series = TimeSeries()
    series.record(5.0, 1.0)
    series.record(5.0, 2.0)
    assert len(series) == 2


def test_window_inclusive():
    series = TimeSeries()
    for t in range(10):
        series.record(float(t), float(t * 10))
    window = series.window(3.0, 5.0)
    assert [t for t, __ in window] == [3.0, 4.0, 5.0]


def test_values_in():
    series = TimeSeries()
    for t in range(10):
        series.record(float(t), float(t))
    assert series.values_in(7.0, 9.0) == [7.0, 8.0, 9.0]


def test_average_over_trailing_window():
    series = TimeSeries()
    series.record(0.0, 100.0)
    series.record(50.0, 10.0)
    series.record(60.0, 20.0)
    assert series.average_over(15.0, now=60.0) == pytest.approx(15.0)


def test_average_over_empty_window_is_none():
    series = TimeSeries()
    series.record(0.0, 1.0)
    assert series.average_over(5.0, now=100.0) is None


def test_retention_trims_old_samples():
    series = TimeSeries(retention=10.0)
    for t in range(30):
        series.record(float(t), float(t))
    times = [t for t, __ in series.all_points()]
    assert min(times) >= 29.0 - 10.0
    assert max(times) == 29.0


def test_no_retention_keeps_everything():
    series = TimeSeries(retention=None)
    for t in range(1000):
        series.record(float(t), 0.0)
    assert len(series) == 1000


def test_invalid_retention_rejected():
    with pytest.raises(ValueError):
        TimeSeries(retention=0.0)


# ----------------------------------------------------------------------
# Reads that take no sum
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "values, expected_max",
    [([1e308, 1e308], 1e308), ([math.inf, -math.inf], math.inf)],
)
def test_counting_and_max_take_no_sum(values, expected_max):
    """``count_between`` and ``max_between`` read no sum, so samples that
    overflow ``math.fsum`` (``OverflowError``) or cancel to no value
    (``inf - inf``: ``ValueError``) still count and still have a max."""
    series = TimeSeries()
    for t, value in enumerate(values):
        series.record(float(t), value)
    assert series.count_between(0.0, 10.0) == len(values)
    assert series.max_between(0.0, 10.0) == expected_max
    assert series.count_between(20.0, 30.0) == 0
    assert series.max_between(20.0, 30.0) is None


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
    ``0.0``, and one NaN equals another)."""
    if isinstance(result, float):
        return "nan" if math.isnan(result) else result.hex()
    if isinstance(result, (list, tuple)):
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
    retention to retire most of them and the ring to compact at least
    three times under the reads. One series is fed through
    ``TimeSeries.record``, a second through ``MetricStore.record_many``'s
    inline copy of it; both must read as the plain list, bit for bit,
    raising where the list's read raises, and hand out lists of floats."""
    assume(sum(dt for dt, __ in motif) >= 0.5 * len(motif))
    single = TimeSeries(retention=retention)
    store = MetricStore()
    store.series("entity", "metric", retention=retention)
    plain = []
    now = 0.0
    for index in range(STREAM_LENGTH):
        dt, value = motif[index % len(motif)]
        now += dt
        single.record(now, value)
        store.record_many(now, [("entity", "metric", value)])
        plain.append((now, float(value)))
        plain = [(t, v) for t, v in plain if t >= now - retention]

        for series in (single, store.row("entity")["metric"]):
            assert len(series) == len(plain)
            assert bits(series.latest()) == bits(plain[-1][1])
            assert series.latest_time() == plain[-1][0]
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
    assert single.compactions >= 3
    assert store.row("entity")["metric"].compactions >= 3


# ----------------------------------------------------------------------
# Footprint: retained history is the state that grows with simulated time
# ----------------------------------------------------------------------
#: 14 days of per-minute samples: what the pattern analyzer reads
#: (paper section V-C).
FOURTEEN_DAYS_OF_MINUTES = 14 * 24 * 60


@pytest.mark.parametrize("path", ["record", "record_many"])
def test_a_retained_sample_costs_at_most_twenty_bytes(path):
    """Two packed doubles are 16 bytes a sample; a list slot per axis
    plus a boxed value costs ≈ 40 (batched) to 64 (single). The guard
    leaves room for the arrays' over-allocation and nothing else."""
    tracemalloc.start()
    try:
        store = MetricStore()
        series = store.series("job", "input_rate_mb", retention=15 * 86400.0)
        before = tracemalloc.get_traced_memory()[0]
        for minute in range(FOURTEEN_DAYS_OF_MINUTES):
            time, value = minute * 60.0, 3.0 + minute * 1e-3
            if path == "record":
                series.record(time, value)
            else:
                store.record_many(time, [("job", "input_rate_mb", value)])
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(series) == FOURTEEN_DAYS_OF_MINUTES
    assert grown / FOURTEEN_DAYS_OF_MINUTES <= 20.0
