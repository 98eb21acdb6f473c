"""Unit tests for TimeSeries."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.metrics import TimeSeries, percentile


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


def test_max_over():
    series = TimeSeries()
    series.record(0.0, 5.0)
    series.record(1.0, 9.0)
    series.record(2.0, 3.0)
    assert series.max_over(10.0, now=2.0) == 9.0
    assert series.max_over(0.5, now=100.0) is None


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
# Oracle: every read equals the same read over a plain list
# ----------------------------------------------------------------------
#: Mixed magnitudes make float non-associativity visible: a left-to-right
#: sum of these streams differs from ``math.fsum`` in the last bits.
samples = st.tuples(
    st.one_of(st.just(0.0), st.floats(min_value=0.5, max_value=3.0)),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_subnormal=False),
    st.sampled_from([1.0, 1e-8, 1e8]),
)
STREAM_LENGTH = 600


def plain_reads(points, start, end):
    """The retained samples with ``start <= time <= end``, from a list."""
    return [(t, v) for t, v in points if start <= t <= end]


@settings(max_examples=25, deadline=None)
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
    three times under the reads."""
    assume(sum(dt for dt, __, __ in motif) >= 0.5 * len(motif))
    series = TimeSeries(retention=retention)
    plain = []
    now = 0.0
    for index in range(STREAM_LENGTH):
        dt, value, scale = motif[index % len(motif)]
        now += dt
        series.record(now, value * scale)
        plain.append((now, value * scale))
        plain = [(t, v) for t, v in plain if t >= now - retention]

        assert len(series) == len(plain)
        assert series.latest() == plain[-1][1]
        assert series.latest_time() == plain[-1][0]
        assert series.all_points() == plain
        for offset in offsets:
            at = now + offset
            for duration in durations:
                window = plain_reads(plain, at - duration, at)
                values = [v for __, v in window]
                assert series.window(at - duration, at) == window
                assert series.values_in(at - duration, at) == values
                assert series.average_over(duration, at) == (
                    math.fsum(values) / len(values) if values else None
                )
                assert series.max_over(duration, at) == (max(values) if values else None)
                for q in (0.0, 50.0, 95.0):
                    assert series.percentile_over(duration, at, q) == (
                        percentile(values, q) if values else None
                    )
                assert series.aggregate_between(at - duration, at) == (
                    (math.fsum(values), len(values), max(values)) if values
                    else (0.0, 0, None)
                )
                assert series.mean_between(at - duration, at) == (
                    math.fsum(values) / len(values) if values else None
                )
                assert series.max_between(at - duration, at) == (
                    max(values) if values else None
                )
                assert series.count_between(at - duration, at) == len(values)
    assert series.compactions >= 3
