"""Algorithm 1 — hierarchical JSON config merge throughput.

The merge runs on every State Syncer round for every job (tens of
thousands of jobs every 30 seconds in production), so it must be cheap.
This bench measures merges/second over realistic 4-level configs.
"""

from repro.jobs import ConfigLevel, JobSpec, merge_levels
from repro.jobs.model import base_config


def realistic_levels():
    spec = JobSpec(
        job_id="scuba/table", input_category="cat", task_count=16,
        threads_per_task=2,
    )
    return {
        ConfigLevel.BASE: base_config(),
        ConfigLevel.PROVISIONER: spec.to_provisioner_config(),
        ConfigLevel.SCALER: {
            "task_count": 24,
            "resources": {"cpu": 2.0, "memory_gb": 1.5},
        },
        ConfigLevel.ONCALL: {"task_count": 32},
    }


def test_merge_throughput(benchmark):
    levels = realistic_levels()
    merged = benchmark(merge_levels, levels)
    # Correctness: precedence respected even under the benchmark loop.
    assert merged["task_count"] == 32
    assert merged["resources"]["cpu"] == 2.0
    assert merged["package"]["name"] == "stream_engine"


def test_merge_thirty_thousand_jobs(timed_once):
    """One syncer round's worth of merges: 30 K jobs within seconds."""
    levels = realistic_levels()

    def merge_fleet():
        for __ in range(30_000):
            merge_levels(levels)

    _, total_seconds = timed_once(merge_fleet)
    print(f"\n30,000 merges in {total_seconds:.2f}s")
    assert total_seconds < 10.0, "a syncer round's merges fit in seconds"
