"""Streaming metrics engine hot paths: batched ingest, O(1) windows.

Two costs dominate the metric plane at fleet scale (paper section V-C:
per-minute workload metrics for every task of every job):

* **ingest** — every task manager step lands one sample per task per
  metric; the batched ``record_many`` path is measured here at 10 000
  tasks over one simulated day of collection ticks;
* **trailing-window reads** — every scaler round asks for averages and
  maxima over the last N minutes; the incremental window aggregates
  answer in O(1) amortized instead of rescanning O(window) samples.

The acceptance bar from the issue: windowed reads under sustained
ingestion must be at least 5× faster with the streaming engine than with
the naive rescan path — while returning bit-identical values (the
equality is asserted below too; the exhaustive proof is the property
suite in tests/metrics/test_streaming_equivalence.py).
"""

import time

from repro.metrics.series import TimeSeries
from repro.metrics.store import MetricStore
from repro.testing.reference import NaiveTimeSeries

NUM_TASKS = 10_000
#: One simulated day of ten-minute collection ticks.
INGEST_TICKS = 144
TICK_SECONDS = 600.0

#: The acceptance threshold from the issue ("at least 5x"). The measured
#: gap is far larger on wide windows; 5x keeps the assertion robust on
#: noisy CI.
MIN_SPEEDUP = 5.0

#: Read benchmark: one day of 5-second samples, then sustained
#: record+read rounds over hour-scale trailing windows.
READ_PRELOAD = 17_280
READ_ROUNDS = 200


def timed(callable_):
    start = time.perf_counter()
    result = callable_()
    return time.perf_counter() - start, result


def ingest_one_day(store):
    now = 0.0
    for _ in range(INGEST_TICKS):
        now += TICK_SECONDS
        batch = [
            (f"task-{index:05d}", "cpu_used", (index % 97) * 0.01)
            for index in range(NUM_TASKS)
        ]
        store.record_many(now, batch)
    return store


def test_ingest_10k_tasks_one_day(benchmark):
    """Batched ingest throughput: 10 000 tasks × 1 day of ticks."""
    store = benchmark.pedantic(
        ingest_one_day, args=(MetricStore(),), rounds=1, iterations=1
    )
    elapsed = benchmark.stats.stats.max
    total = NUM_TASKS * INGEST_TICKS
    assert store.samples_ingested == total
    assert store.batches_ingested == INGEST_TICKS
    print(
        f"\ningested {total:,} samples in {elapsed:.2f}s "
        f"({total / elapsed / 1e6:.2f}M samples/s)"
    )


#: Scaler-shaped windows: a four-hour average (downscale validation) and
#: a two-hour max (peak detection) over five-second samples.
AVG_WINDOW = 14_400.0
MAX_WINDOW = 7_200.0


def build_loaded_series(series_type):
    series = series_type(retention=2 * 86400.0)
    now = 0.0
    for index in range(READ_PRELOAD):
        now += 5.0
        series.record(now, (index % 977) * 0.5)
    # Warm the read path (for streaming: the one-off O(window) build of
    # the rolling state) so the benchmark measures the steady state every
    # scaler round after the first one sees.
    series.average_over(AVG_WINDOW, now)
    series.max_over(MAX_WINDOW, now)
    return series, now


def read_rounds(series, now):
    """Sustained ingestion with scaler-shaped reads: every round appends
    one sample then asks for a window average and a window max."""
    acc = 0.0
    for index in range(READ_ROUNDS):
        now += 5.0
        series.record(now, (index % 977) * 0.5)
        acc += series.average_over(AVG_WINDOW, now)
        acc += series.max_over(MAX_WINDOW, now)
    return acc


def test_windowed_reads_5x_faster_streaming_than_naive(benchmark):
    naive_series, naive_now = build_loaded_series(NaiveTimeSeries)
    naive_elapsed, naive_acc = timed(lambda: read_rounds(naive_series, naive_now))

    fast_series, fast_now = build_loaded_series(TimeSeries)
    fast_acc = benchmark.pedantic(
        read_rounds, args=(fast_series, fast_now), rounds=1, iterations=1
    )
    fast_elapsed = benchmark.stats.stats.max

    # Same samples, same reads — the answers must agree bit for bit.
    assert fast_acc == naive_acc
    assert fast_series.window_fast == 2 * (READ_ROUNDS + 1)

    speedup = naive_elapsed / max(fast_elapsed, 1e-9)
    per_read = fast_elapsed / (2 * READ_ROUNDS)
    print(
        f"\n{2 * READ_ROUNDS} windowed reads over {READ_PRELOAD:,}-sample "
        f"series: naive {naive_elapsed * 1e3:.1f}ms, "
        f"streaming {fast_elapsed * 1e3:.1f}ms "
        f"({speedup:.0f}x, {per_read * 1e6:.1f}us/read)"
    )
    assert speedup >= MIN_SPEEDUP


def test_historical_range_reads_hit_rollup_buckets(benchmark):
    """The pattern analyzer's 14-day reads served from 5-minute buckets."""
    def build(series_type):
        series = series_type(retention=15 * 86400.0)
        now = 0.0
        for index in range(14 * 1440):  # 14 days of per-minute samples
            now += 60.0
            series.record(now, (index % 1231) * 0.25)
        return series, now

    def scan_days(series, now):
        acc = 0.0
        for day in range(1, 15):
            start = now - day * 86400.0
            total, count, peak = series.aggregate_between(
                start, start + 86400.0
            )
            acc += total + count + peak
        return acc

    naive_series, naive_now = build(NaiveTimeSeries)
    naive_elapsed, naive_acc = timed(lambda: scan_days(naive_series, naive_now))

    fast_series, fast_now = build(TimeSeries)
    fast_acc = benchmark.pedantic(
        scan_days, args=(fast_series, fast_now), rounds=1, iterations=1
    )
    fast_elapsed = benchmark.stats.stats.max

    assert fast_acc == naive_acc
    assert fast_series.rollup_reads == 14
    print(
        f"\n14 day-wide range reads: naive {naive_elapsed * 1e3:.2f}ms, "
        f"rollup-backed {fast_elapsed * 1e3:.2f}ms "
        f"({naive_elapsed / max(fast_elapsed, 1e-9):.1f}x)"
    )
