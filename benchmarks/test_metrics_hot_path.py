"""Metric-store ingest hot path: ``record_row`` at fleet scale.

Every stats round lands one row per job (paper section V-C: per-minute
workload metrics for every job) through ``record_row``, the store's one
landing body; it is measured here at 10 000 entities over one simulated
day of collection ticks, one call per entity per tick. Window reads have
no benchmark of their own: there is one read path (bisect, then reduce
the slice in C), and its cost on the platform is in the end-to-end
benchmark's ``tailer-churn`` and ``storm-rescale`` workloads.

The day is timed in eighths. A round ingests one eighth into a store
that already holds the day's earlier eighths, so every round pays what
its part of the day costs, and the day is ingested :data:`DAYS` times.
Whole-day rounds of ~5 s left the gated best round moving ±13 % between
runs of one tree while the yardstick's best moved 2 %: a long round
cannot catch the box in a quiet second, and the best of forty short
ones can.
"""

from repro.metrics.store import MetricStore

NUM_TASKS = 10_000
#: One simulated day of ten-minute collection ticks.
INGEST_TICKS = 144
TICK_SECONDS = 600.0
METRICS = ("cpu_used",)
#: Timed rounds per day, and days ingested.
SEGMENTS = 8
DAYS = 5


def ingest_ticks(store, times):
    """One ``record_row`` call per entity at each of ``times``."""
    for now in times:
        for index in range(NUM_TASKS):
            store.record_row(
                f"task-{index:05d}", now, METRICS, ((index % 97) * 0.01,)
            )
    return store


def eighths_of_days():
    """``(store, tick times)`` for each round: a fresh store at the start
    of each day, then the day's eighths in order."""
    per_segment = INGEST_TICKS // SEGMENTS
    for _ in range(DAYS):
        store = MetricStore()
        for segment in range(SEGMENTS):
            first = segment * per_segment
            yield store, [
                TICK_SECONDS * (tick + 1)
                for tick in range(first, first + per_segment)
            ]


def test_ingest_10k_tasks_one_day(timed_best):
    """Ingest throughput: 10 000 entities × 1 day of ticks, one
    ``record_row`` call per entity per tick, every sample counted."""
    rounds = eighths_of_days()
    store, elapsed = timed_best(
        ingest_ticks, lambda: next(rounds), rounds=SEGMENTS * DAYS
    )
    for store, times in rounds:  # what ``--benchmark-disable`` left
        ingest_ticks(store, times)
    total = NUM_TASKS * INGEST_TICKS
    assert store.samples_ingested == total
    assert store.batches_ingested == total
    print(
        f"\ningested {total // SEGMENTS:,} samples in {elapsed:.2f}s at best "
        f"({total / SEGMENTS / elapsed / 1e6:.2f}M samples/s)"
    )
