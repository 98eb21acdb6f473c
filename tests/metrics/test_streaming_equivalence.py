"""Property tests: the streaming metrics engine ≡ a naive rescan.

Two series ingest the *same* sample stream: the production series with
its streaming read paths (incremental window aggregates, rollup buckets,
histogram sketches) and ``repro.testing.reference.NaiveTimeSeries``, which
has none of them (slice-and-rescan over the ring). Every
read the scaler, balancer, and pattern analyzer perform must agree
**bit for bit** between the two — not approximately, byte-identically —
because the engine is sold as a pure read-path optimization and the
golden determinism suite compares whole-platform runs on equality.

The exactness argument under test: both paths produce the *correctly
rounded* window sum (``math.fsum`` on one side, a Shewchuk expansion
maintained under adds and evictions on the other), max is exact under
any regrouping, and the sketch's integer bucket counts add/remove
symmetrically. See ``repro/metrics/window.py``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.aggregate import SKETCH_MIN_VALUES, percentile
from repro.metrics.series import TimeSeries
from repro.metrics.sketch import DEFAULT_ALPHA, HistogramSketch
from repro.metrics.store import MetricStore
from repro.testing.reference import NaiveTimeSeries

#: Trailing windows exercised on every step: shorter than retention,
#: comparable to it, and longer than it (the whole-ring case).
WINDOWS = (30.0, 120.0, 450.0)
RETENTION = 400.0

#: Mixed magnitudes make float non-associativity visible: a naive
#: left-to-right sum of these streams differs from fsum in the last
#: bits, so any shortcut in the streaming path would fail == here.
samples = st.tuples(
    st.floats(min_value=0.05, max_value=30.0, allow_nan=False),
    st.floats(
        min_value=-1e6, max_value=1e6,
        allow_nan=False, allow_subnormal=False,
    ),
    st.sampled_from([1.0, 1e-8, 1e8]),
)
streams = st.lists(samples, min_size=1, max_size=120)


def ingest_pair(stream, **kwargs):
    fast = TimeSeries(**kwargs)
    naive = NaiveTimeSeries(**kwargs)
    now = 0.0
    for dt, value, scale in stream:
        now += dt
        fast.record(now, value * scale)
        naive.record(now, value * scale)
    return fast, naive, now


class TestTrailingWindows:
    @settings(max_examples=50, deadline=None)
    @given(stream=streams)
    def test_average_and_max_match_bit_for_bit(self, stream):
        fast = TimeSeries(retention=RETENTION)
        naive = NaiveTimeSeries(retention=RETENTION)
        now = 0.0
        for dt, value, scale in stream:
            now += dt
            sample = value * scale
            fast.record(now, sample)
            naive.record(now, sample)
            for duration in WINDOWS:
                assert fast.average_over(duration, now) == naive.average_over(
                    duration, now
                )
                assert fast.max_over(duration, now) == naive.max_over(
                    duration, now
                )
        # Reads with ``now`` ahead of the newest sample (the scaler asks
        # at decision time, not at ingest time) must also agree as the
        # window slides off the data.
        for ahead in (0.5, 40.0, 500.0):
            for duration in WINDOWS:
                assert fast.average_over(duration, now + ahead) == (
                    naive.average_over(duration, now + ahead)
                )
                assert fast.max_over(duration, now + ahead) == (
                    naive.max_over(duration, now + ahead)
                )
        assert fast.all_points() == naive.all_points()
        assert len(fast) == len(naive)

    @settings(max_examples=25, deadline=None)
    @given(stream=streams)
    def test_sketched_percentiles_match_bit_for_bit(self, stream):
        """Streaming and one-shot sketches agree exactly (integer counts)."""
        fast = TimeSeries(retention=RETENTION)
        naive = NaiveTimeSeries(retention=RETENTION)
        now = 0.0
        for dt, value, scale in stream:
            now += dt
            sample = value * scale
            fast.record(now, sample)
            naive.record(now, sample)
            for q in (50.0, 95.0):
                assert fast.percentile_over(
                    120.0, now, q, tolerance=0.01
                ) == naive.percentile_over(120.0, now, q, tolerance=0.01)
        # Exact path (no tolerance) as a control.
        assert fast.percentile_over(120.0, now, 95.0) == (
            naive.percentile_over(120.0, now, 95.0)
        )

    def test_long_stream_with_compactions_stays_identical(self):
        """Retention churn drives ring compaction under live window state."""
        rng = random.Random(42)
        fast = TimeSeries(retention=500.0)
        naive = NaiveTimeSeries(retention=500.0)
        now = 0.0
        for _ in range(5000):
            now += rng.uniform(0.1, 5.0)
            sample = rng.uniform(-1000.0, 1000.0) * rng.choice(
                [1.0, 1e-8, 1e8]
            )
            fast.record(now, sample)
            naive.record(now, sample)
            for duration in WINDOWS:
                assert fast.average_over(duration, now) == naive.average_over(
                    duration, now
                )
                assert fast.max_over(duration, now) == naive.max_over(
                    duration, now
                )
        assert fast.compactions > 0, "retention churn must compact the ring"
        assert fast.window_fast > 0.9 * fast.window_queries
        assert fast.all_points() == naive.all_points()


class TestRollupRanges:
    @settings(max_examples=50, deadline=None)
    @given(
        stream=st.lists(samples, min_size=5, max_size=120),
        ranges=st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=1.0),
                st.floats(min_value=0.0, max_value=1.0),
            ),
            min_size=1, max_size=10,
        ),
    )
    def test_aggregate_between_matches_raw_scan(self, stream, ranges):
        fast, naive, now = ingest_pair(
            stream, retention=3600.0, rollup_period=50.0
        )
        for a, b in ranges:
            start, end = sorted((a * now, b * now))
            assert fast.aggregate_between(start, end) == (
                naive.aggregate_between(start, end)
            )
            assert fast.mean_between(start, end) == naive.mean_between(
                start, end
            )
            assert fast.max_between(start, end) == naive.max_between(
                start, end
            )

    def test_pattern_analyzer_shape_reads_hit_rollups(self):
        """A 15-day series at 60 s cadence: random historical ranges are
        served from 5-minute buckets, bit-identical to the raw scan."""
        rng = random.Random(7)
        fast = TimeSeries(retention=15 * 86400.0)
        naive = NaiveTimeSeries(retention=15 * 86400.0)
        assert fast._rollup is not None, (
            "long-retention series must auto-attach a rollup tier"
        )
        now = 0.0
        for _ in range(20_000):
            now += 60.0
            sample = rng.uniform(0.0, 50.0) * rng.choice([1.0, 1e-6, 1e6])
            fast.record(now, sample)
            naive.record(now, sample)
        for _ in range(200):
            start = rng.uniform(0.0, now)
            end = start + rng.uniform(0.0, now - start)
            assert fast.aggregate_between(start, end) == (
                naive.aggregate_between(start, end)
            )
        assert fast.rollup_reads > 0, "ranges this wide must use buckets"


class TestStoreBatching:
    entities = st.sampled_from(["job-a", "job-b", "task-0", "task-1"])
    metrics = st.sampled_from(["cpu_used", "rate_mb", "lag"])
    batches = st.lists(
        st.lists(
            st.tuples(
                entities, metrics,
                st.floats(
                    min_value=-1e9, max_value=1e9,
                    allow_nan=False, allow_subnormal=False,
                ),
            ),
            max_size=12,
        ),
        min_size=1, max_size=20,
    )

    @settings(max_examples=50, deadline=None)
    @given(batches=batches)
    def test_record_many_matches_record_loop(self, batches):
        batched = MetricStore()
        looped = MetricStore()
        now = 0.0
        for batch in batches:
            now += 60.0
            ingested = batched.record_many(now, batch)
            assert ingested == len(batch)
            for entity, metric, value in batch:
                looped.record(entity, metric, now, value)
        assert batched.samples_ingested == looped.samples_ingested
        for (entity, metric), series in looped._series.items():
            assert batched.series(entity, metric).all_points() == (
                series.all_points()
            )
        for metric in ("cpu_used", "rate_mb", "lag"):
            assert batched.entities_with(metric) == looped.entities_with(metric)

    def test_record_many_drops_whole_batch_while_unavailable(self):
        store = MetricStore()
        store.fail()
        assert store.record_many(0.0, [("e", "m", 1.0), ("e", "m2", 2.0)]) == 0
        assert store.dropped_points == 2
        store.recover()
        assert store.record_many(60.0, [("e", "m", 1.0)]) == 1
        assert store.latest("e", "m") == 1.0

    def test_indexes_follow_drop_entity(self):
        store = MetricStore()
        store.record_many(
            0.0, [("a", "cpu", 1.0), ("b", "cpu", 2.0), ("a", "mem", 3.0)]
        )
        assert store.entities_with("cpu") == ["a", "b"]
        store.drop_entity("a")
        assert store.entities_with("cpu") == ["b"]
        assert store.entities_with("mem") == []
        assert store.latest("a", "cpu") is None


class TestSketchErrorBound:
    #: Worst-case relative error is exactly alpha (a value landing on a
    #: bucket boundary); allow float-rounding headroom on the comparison.
    HEADROOM = 1.0 + 1e-9

    @staticmethod
    def assert_rank_adjacent(estimate, values, q, alpha):
        ordered = sorted(values)
        rank = (q / 100.0) * (len(ordered) - 1)
        neighbors = {
            ordered[math.floor(rank)], ordered[math.ceil(rank)]
        }
        ok = any(
            estimate == neighbor
            or abs(estimate - neighbor)
            <= alpha * abs(neighbor) * TestSketchErrorBound.HEADROOM
            for neighbor in neighbors
        )
        assert ok, (
            f"p{q} estimate {estimate!r} not within {alpha} of either "
            f"rank-adjacent value {sorted(neighbors)!r}"
        )

    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(
            st.floats(
                min_value=-1e12, max_value=1e12,
                allow_nan=False, allow_subnormal=False,
            ),
            min_size=1, max_size=300,
        ),
        q=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_percentile_within_alpha_of_adjacent_order_statistic(
        self, values, q
    ):
        sketch = HistogramSketch(DEFAULT_ALPHA)
        for value in values:
            sketch.add(value)
        assert sketch.count == len(values)
        self.assert_rank_adjacent(
            sketch.percentile(q), values, q, DEFAULT_ALPHA
        )

    def test_remove_restores_exact_state(self):
        """Adds and removes are symmetric — the window-eviction contract."""
        sketch = HistogramSketch(0.01)
        kept = [1.0, 2.5, -3.0, 0.0, 1e6]
        evicted = [7.0, -0.25, 0.0, 123.456]
        for value in kept + evicted:
            sketch.add(value)
        for value in evicted:
            sketch.remove(value)
        reference = HistogramSketch(0.01)
        for value in kept:
            reference.add(value)
        for q in (0.0, 25.0, 50.0, 95.0, 100.0):
            assert sketch.percentile(q) == reference.percentile(q)

    def test_merge_matches_single_pass_build(self):
        """Sharded sketches fold together without losing anything."""
        left, right, both = (HistogramSketch(0.01) for _ in range(3))
        a_values = [0.5, 2.0, -7.5, 0.0, 3e8]
        b_values = [1.5, -2.0, 0.0, 4e-6]
        for value in a_values:
            left.add(value)
            both.add(value)
        for value in b_values:
            right.add(value)
            both.add(value)
        left.merge(right)
        assert left.count == both.count
        for q in (0.0, 50.0, 100.0):
            assert left.percentile(q) == both.percentile(q)
        with pytest.raises(ValueError):
            left.merge(HistogramSketch(0.05))
        left.clear()
        assert left.count == 0

    def test_aggregate_percentile_sketch_path_honors_bound(self):
        """``percentile(..., tolerance=...)`` switches to the sketch only
        above SKETCH_MIN_VALUES and stays within the declared tolerance."""
        rng = random.Random(3)
        values = [rng.uniform(0.1, 10_000.0) for _ in range(500)]
        assert len(values) >= SKETCH_MIN_VALUES
        for q in (1.0, 50.0, 99.0):
            sketched = percentile(values, q, tolerance=0.01)
            self.assert_rank_adjacent(sketched, values, q, 0.01)
        small = values[: SKETCH_MIN_VALUES - 1]
        assert percentile(small, 50.0, tolerance=0.01) == percentile(
            small, 50.0
        )
