"""The partitioning rule: MD5 task → shard → partition.

The data plane already buckets every task into a shard by MD5 hash
(:func:`repro.tasks.shard.shard_index_for_task`); the parallel substrate
reuses that exact mapping and folds shards onto partitions with a plain
modulus. Both steps are pure functions of stable identifiers, so any
process — a worker that just started, the coordinator, a test — computes
the same slicing without coordination, which is the same property that
lets Turbine's Task Managers agree on shard membership without talking
to each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.errors import SimulationError
from repro.tasks.shard import shard_index_for_task


def partition_for_shard(shard_index: int, num_partitions: int) -> int:
    """The partition that owns ``shard_index`` (round-robin fold)."""
    if num_partitions <= 0:
        raise SimulationError(
            f"num_partitions must be positive: {num_partitions}"
        )
    return shard_index % num_partitions


def partition_for_task(
    task_id: str, num_shards: int, num_partitions: int
) -> int:
    """The partition that simulates ``task_id``."""
    return partition_for_shard(
        shard_index_for_task(task_id, num_shards), num_partitions
    )


@dataclass(frozen=True)
class PartitionPlan:
    """A fleet's static slicing into partitions.

    Frozen on purpose: the shard → partition fold never changes during a
    run (tasks move between *shards* only by being created or deleted,
    which the control plane does at barriers), so the plan can be built
    once and shipped to workers by value.
    """

    num_shards: int
    num_partitions: int

    def __post_init__(self) -> None:
        if self.num_shards <= 0:
            raise SimulationError(
                f"num_shards must be positive: {self.num_shards}"
            )
        if self.num_partitions <= 0:
            raise SimulationError(
                f"num_partitions must be positive: {self.num_partitions}"
            )
        if self.num_partitions > self.num_shards:
            raise SimulationError(
                f"cannot split {self.num_shards} shards into "
                f"{self.num_partitions} partitions (each partition needs "
                "at least one shard)"
            )

    def owns_shard(self, shard_index: int, partition_index: int) -> bool:
        """Whether ``partition_index`` simulates ``shard_index``."""
        return shard_index % self.num_partitions == partition_index

    def partition_of_shard(self, shard_index: int) -> int:
        """The partition that owns ``shard_index`` under this plan."""
        if not 0 <= shard_index < self.num_shards:
            raise SimulationError(
                f"shard index out of range: {shard_index}"
            )
        return shard_index % self.num_partitions

    def owns_task(self, task_id: str, partition_index: int) -> bool:
        """Whether ``partition_index`` simulates ``task_id``."""
        return (
            self.partition_of_shard(
                shard_index_for_task(task_id, self.num_shards)
            )
            == partition_index
        )

    def shards_of(self, partition_index: int) -> List[int]:
        """All shard indexes owned by one partition (ascending)."""
        if not 0 <= partition_index < self.num_partitions:
            raise SimulationError(
                f"partition index out of range: {partition_index}"
            )
        return list(
            range(partition_index, self.num_shards, self.num_partitions)
        )
