"""Unit tests for the MD5 task-to-shard mapping."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import PlacementError
from repro.tasks import shard_id_for_task
from repro.tasks.shard import (
    all_shard_ids,
    group_tasks_by_shard,
    shard_index_for_task,
)


def test_mapping_is_deterministic():
    assert shard_id_for_task("job:0", 64) == shard_id_for_task("job:0", 64)


def test_mapping_within_range():
    for index in range(100):
        shard = shard_id_for_task(f"job:{index}", 16)
        assert shard in set(all_shard_ids(16))


def test_different_tasks_spread_across_shards():
    shards = {shard_id_for_task(f"job:{i}", 64) for i in range(1000)}
    assert len(shards) > 48, "1000 tasks should hit most of 64 shards"


def test_no_shard_starves_on_realistic_task_ids():
    """MD5 spreads ``<job>/<index>`` ids evenly: no bucket runs empty."""
    counts = [0, 0, 0, 0]
    for job in range(20):
        for i in range(50):
            counts[shard_index_for_task(f"job-{job:04d}/{i}", 4)] += 1
    assert sum(counts) == 1000
    assert min(counts) > 150


def test_zero_shards_rejected():
    with pytest.raises(PlacementError):
        shard_id_for_task("job:0", 0)
    with pytest.raises(PlacementError):
        all_shard_ids(-1)


def test_group_tasks_by_shard_covers_all_tasks():
    task_ids = [f"job-{j}:{i}" for j in range(10) for i in range(10)]
    grouped = group_tasks_by_shard(task_ids, 16)
    regrouped = [tid for bucket in grouped.values() for tid in bucket]
    assert sorted(regrouped) == sorted(task_ids)


def test_group_buckets_sorted():
    grouped = group_tasks_by_shard(["b:1", "a:1", "c:1"], 1)
    assert grouped["shard-00000"] == ["a:1", "b:1", "c:1"]


def test_all_shard_ids_format():
    assert all_shard_ids(3) == ["shard-00000", "shard-00001", "shard-00002"]


@given(st.text(min_size=1, max_size=30), st.integers(min_value=1, max_value=4096))
def test_any_task_id_maps_into_range(task_id, num_shards):
    shard = shard_id_for_task(task_id, num_shards)
    index = int(shard.split("-")[1])
    assert 0 <= index < num_shards


@given(st.integers(min_value=1, max_value=256))
def test_distribution_roughly_uniform(num_shards):
    """No shard should get a wildly disproportionate share of tasks."""
    task_ids = [f"job-{i}:{i % 7}" for i in range(num_shards * 20)]
    grouped = group_tasks_by_shard(task_ids, num_shards)
    biggest = max(len(bucket) for bucket in grouped.values())
    assert biggest <= 20 * 4, "MD5 should spread tasks roughly uniformly"
