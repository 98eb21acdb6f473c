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

Since PR 24 a trailing window is only given rolling state once it holds
more than ``RESCAN_MAX`` samples (smaller ones are rescanned in C, which
is what the reference does). Generated streams are short, so the
hypothesis cases run under :func:`cutover`, which moves the constant down
far enough that every stream has windows on both sides of it; the dense
deterministic cases run against the real constant.
"""

import math
import random
from contextlib import contextmanager

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics import series as series_module
from repro.metrics.aggregate import SKETCH_MIN_VALUES, percentile
from repro.metrics.series import RESCAN_MAX, TimeSeries
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


@contextmanager
def cutover(samples):
    """Run with the rescan → rolling cutover at ``samples`` per window."""
    series_module.RESCAN_MAX = samples
    try:
        yield
    finally:
        series_module.RESCAN_MAX = RESCAN_MAX


def assert_window_reads_equal(fast, naive, duration, now):
    assert fast.average_over(duration, now) == naive.average_over(duration, now)
    assert fast.max_over(duration, now) == naive.max_over(duration, now)
    for q in (50.0, 95.0):
        assert fast.percentile_over(
            duration, now, q, tolerance=0.01
        ) == naive.percentile_over(duration, now, q, tolerance=0.01)


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
    @given(stream=streams, cut=st.sampled_from([0, 3, 12, RESCAN_MAX]))
    def test_average_and_max_match_bit_for_bit(self, stream, cut):
        with cutover(cut):
            self.check_average_and_max(stream)

    @staticmethod
    def check_average_and_max(stream):
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
    @given(stream=streams, cut=st.sampled_from([0, 3, 12]))
    def test_sketched_percentiles_match_bit_for_bit(self, stream, cut):
        """Streaming and one-shot sketches agree exactly (integer counts)."""
        with cutover(cut):
            self.check_sketched_percentiles(stream)

    @staticmethod
    def check_sketched_percentiles(stream):
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
        """Retention churn drives ring compaction under live window state.
        Dense enough that every window holds more than ``RESCAN_MAX``
        samples: these reads must stay on the rolling state."""
        rng = random.Random(42)
        fast = TimeSeries(retention=60.0)
        naive = NaiveTimeSeries(retention=60.0)
        now = 0.0
        for _ in range(5000):
            now += rng.uniform(0.01, 0.2)
            sample = rng.uniform(-1000.0, 1000.0) * rng.choice(
                [1.0, 1e-8, 1e8]
            )
            fast.record(now, sample)
            naive.record(now, sample)
            for duration in (20.0, 45.0, 90.0):
                assert fast.average_over(duration, now) == naive.average_over(
                    duration, now
                )
                assert fast.max_over(duration, now) == naive.max_over(
                    duration, now
                )
        assert len(fast.values_in(now - 20.0, now)) > RESCAN_MAX
        assert fast.compactions > 0, "retention churn must compact the ring"
        assert fast.window_fast > 0.9 * fast.window_queries
        assert fast.all_points() == naive.all_points()


class TestRescanCutover:
    """Windows on both sides of ``RESCAN_MAX``, and crossing it mid-life."""

    @settings(max_examples=50, deadline=None)
    @given(
        stream=streams,
        cut=st.integers(0, 40),
        behind=st.floats(min_value=0.0, max_value=60.0),
    )
    def test_every_read_matches_whatever_the_cutover(self, stream, cut, behind):
        """Growing past the cutover (cold seed mid-life), shrinking back
        under retention trim, ``now`` behind the newest sample and ahead
        of it: average, max and toleranced percentile, bit for bit."""
        with cutover(cut):
            fast = TimeSeries(retention=RETENTION)
            naive = NaiveTimeSeries(retention=RETENTION)
            now = 0.0
            for dt, value, scale in stream:
                now += dt
                fast.record(now, value * scale)
                naive.record(now, value * scale)
                for duration in WINDOWS:
                    assert_window_reads_equal(fast, naive, duration, now)
                    assert_window_reads_equal(
                        fast, naive, duration, max(0.0, now - behind)
                    )
            for duration in WINDOWS:
                assert_window_reads_equal(fast, naive, duration, now + 40.0)
            assert fast.all_points() == naive.all_points()

    def test_rolling_state_is_only_built_above_the_cutover(self):
        fast = TimeSeries(retention=None)
        for index in range(RESCAN_MAX):
            fast.record(float(index), 1.0)
            fast.average_over(1e6, float(index))
            fast.max_over(1e6, float(index))
        assert fast._aggs == {} and fast.window_fast == 0
        assert fast.window_queries == 2 * RESCAN_MAX
        fast.record(float(RESCAN_MAX), 1.0)
        assert fast.average_over(1e6, float(RESCAN_MAX)) == 1.0
        assert list(fast._aggs) == [1e6] and fast.window_fast == 1
        # A shorter window of the same series is still a rescan.
        assert fast.average_over(10.0, float(RESCAN_MAX)) == 1.0
        assert list(fast._aggs) == [1e6] and fast.window_fast == 1

    def test_grow_shrink_regrow_across_the_real_cutover(self):
        """Dense → sparse → dense at the real constant: the 60 s window
        grows past ``RESCAN_MAX`` (state seeded cold, mid-life), shrinks
        to a dozen samples while retention trims and compacts the dense
        phase away under it, then grows back — and the state it left
        behind must not answer with anything it missed."""
        rng = random.Random(7)
        fast = TimeSeries(retention=100.0)
        naive = NaiveTimeSeries(retention=100.0)
        now = 0.0
        sizes = []
        for step, count in ((0.1, 1500), (5.0, 60), (0.1, 1500), (5.0, 30)):
            for _ in range(count):
                now += step
                sample = rng.uniform(-50.0, 50.0) * rng.choice([1.0, 1e-8, 1e8])
                fast.record(now, sample)
                naive.record(now, sample)
                assert_window_reads_equal(fast, naive, 60.0, now)
                assert_window_reads_equal(fast, naive, 60.0, now - 2.5)
            sizes.append(len(fast.values_in(now - 60.0, now)))
        assert sizes[0] > RESCAN_MAX > sizes[1] and sizes[2] > RESCAN_MAX > sizes[3]
        assert fast.compactions > 0
        assert 0 < fast.window_fast < fast.window_queries
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
