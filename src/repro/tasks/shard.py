"""Task-to-shard mapping.

"Each of these Task Managers periodically fetches the list of all Turbine
tasks from the Task Service and computes an MD5 hash for each task. The
result defines the shard ID associated with this task." (paper
section IV-A1).

The mapping is pure and stateless: any Task Manager, given the same task
list and shard count, computes the same mapping — which is what lets the
two-level scheduling work without the Shard Manager knowing about tasks.
"""

from __future__ import annotations

import hashlib
from typing import List

from repro.errors import PlacementError
from repro.types import ShardId, TaskId

#: Default number of shards per tier. More shards than containers gives the
#: balancer fine-grained units to move; the paper's production tier maps
#: 100 K shards onto thousands of containers.
DEFAULT_NUM_SHARDS = 1024


def shard_index_for_task(task_id: TaskId, num_shards: int) -> int:
    """The numeric shard index of a task, by MD5 hash of its id
    (:func:`shard_id_for_task` formats it as the shard id string)."""
    if num_shards <= 0:
        raise PlacementError(f"num_shards must be positive: {num_shards}")
    # int.from_bytes(digest) == int(hexdigest, 16): same 128-bit value,
    # without materializing and re-parsing a 32-char hex string.
    digest = hashlib.md5(task_id.encode("utf-8")).digest()
    return int.from_bytes(digest, "big") % num_shards


def shard_id_for_task(task_id: TaskId, num_shards: int) -> ShardId:
    """The shard a task belongs to, by MD5 hash of its id."""
    return f"shard-{shard_index_for_task(task_id, num_shards):05d}"


def all_shard_ids(num_shards: int) -> List[ShardId]:
    """Every shard id in a tier of ``num_shards`` shards."""
    if num_shards <= 0:
        raise PlacementError(f"num_shards must be positive: {num_shards}")
    return [f"shard-{index:05d}" for index in range(num_shards)]
