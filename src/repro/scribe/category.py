"""Scribe categories.

"At a logical level, Scribe data is partitioned into categories (c.f. Kafka
topics). Data for different Scuba tables is logged into different Scribe
categories." (paper section VI). A category is a fixed set of partitions;
producers write into it and the category spreads bytes across partitions,
either uniformly or by explicit weights (the imbalanced-input case that the
reactive scaler's rebalance path handles).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.errors import ScribeError
from repro.scribe.partition import Partition


class Category:
    """A named set of partitions with weighted append."""

    def __init__(self, name: str, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ScribeError(
                f"category {name} needs at least one partition, got {num_partitions}"
            )
        self.name = name
        self.partitions: List[Partition] = [
            Partition(f"{name}/{index}") for index in range(num_partitions)
        ]
        self._weights: Optional[List[float]] = None

    @property
    def num_partitions(self) -> int:
        return len(self.partitions)

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def set_weights(self, weights: Optional[Sequence[float]]) -> None:
        """Set the per-partition traffic split; ``None`` restores uniform.

        Weights are normalized; they model skewed producers (the paper's
        "imbalanced input" symptom, measured as the standard deviation of
        processing rate across a job's tasks).
        """
        if weights is None:
            self._weights = None
            return
        if len(weights) != self.num_partitions:
            raise ScribeError(
                f"category {self.name} has {self.num_partitions} partitions "
                f"but got {len(weights)} weights"
            )
        if any(weight < 0 for weight in weights):
            raise ScribeError("weights must be non-negative")
        total = sum(weights)
        if total <= 0:
            raise ScribeError("at least one weight must be positive")
        self._weights = [weight / total for weight in weights]

    def append(self, num_bytes: float) -> None:
        """Write ``num_bytes`` into the category, split by current weights.

        Each head takes the same ``+=`` :meth:`Partition.append` would
        make, in the same order; with ``num_bytes`` checked here and the
        weights non-negative, no share can be negative.
        """
        if num_bytes < 0:
            raise ScribeError(f"cannot append negative bytes: {num_bytes}")
        if self._weights is None:
            share = num_bytes / self.num_partitions
            for partition in self.partitions:
                partition.head += share
        else:
            for partition, weight in zip(self.partitions, self._weights):
                partition.head += num_bytes * weight

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_head(self) -> float:
        """Total bytes ever written across all partitions."""
        return sum(partition.head for partition in self.partitions)

    def partition_slice(self, task_index: int, task_count: int) -> List[Partition]:
        """The disjoint subset of partitions owned by one task of a job.

        Partitions are distributed round-robin: task ``i`` of ``n`` owns
        partitions ``i, i+n, i+2n, ...``. Every partition belongs to exactly
        one task, which is the disjointness property the paper's data model
        relies on.
        """
        if task_count <= 0:
            raise ScribeError(f"task_count must be positive: {task_count}")
        if not 0 <= task_index < task_count:
            raise ScribeError(
                f"task_index {task_index} out of range for {task_count} tasks"
            )
        return [
            partition
            for index, partition in enumerate(self.partitions)
            if index % task_count == task_index
        ]

    def __repr__(self) -> str:
        return f"Category({self.name!r}, partitions={self.num_partitions})"
