"""Metric-store ingest hot path: batched ``record_many`` at fleet scale.

Every stats round lands one sample per job per metric (paper section V-C:
per-minute workload metrics for every job); the batched ``record_many``
path is measured here at 10 000 entities over one simulated day of
collection ticks. Window reads have no benchmark of their own: there is
one read path (bisect, then reduce the slice in C), and its cost on the
platform is in the end-to-end benchmark's ``tailer-churn`` and
``storm-rescale`` workloads.
"""

from repro.metrics.store import MetricStore

NUM_TASKS = 10_000
#: One simulated day of ten-minute collection ticks.
INGEST_TICKS = 144
TICK_SECONDS = 600.0


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
    """Batched ingest throughput: 10 000 entities × 1 day of ticks, one
    ``record_many`` call per tick, every sample counted."""
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
