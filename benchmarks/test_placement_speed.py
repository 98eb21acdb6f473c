"""Section VI-A scalar claim — placement speed.

"each execution of the placement algorithm computing the mapping of 100K
shards onto thousands of Turbine containers takes less than two seconds."
"""

from repro.cluster import ResourceVector
from repro.sim import SeededRng
from repro.tasks import compute_assignment


def build_tier(num_shards=100_000, num_containers=3_000, seed=1):
    rng = SeededRng(seed)
    shards = {
        f"shard-{i:06d}": ResourceVector(
            cpu=rng.uniform(0.01, 1.0), memory_gb=rng.uniform(0.1, 2.0)
        )
        for i in range(num_shards)
    }
    containers = {
        f"turbine-{i:05d}": ResourceVector(cpu=10.0, memory_gb=26.0)
        for i in range(num_containers)
    }
    return shards, containers


def test_place_100k_shards_under_two_seconds(timed_best):
    shards, containers = build_tier()

    change, elapsed = timed_best(
        compute_assignment, lambda: (shards, containers)
    )
    print(f"\n100K shards -> 3K containers in {elapsed:.2f}s (paper: <2s)")
    assert elapsed < 2.0
    assert len(change.assignment) == len(shards)

