"""Scribe categories.

"At a logical level, Scribe data is partitioned into categories (c.f. Kafka
topics). Data for different Scuba tables is logged into different Scribe
categories." (paper section VI). A category is a fixed set of partitions;
producers write into it and the category spreads bytes across partitions,
either uniformly or by explicit weights (the imbalanced-input case that the
reactive scaler's rebalance path handles).

A category keeps its partitions' state as columns indexed by partition
number — :attr:`Category.heads` and :attr:`Category.online` — which the
container step and the lag sums read directly; :attr:`Category.partitions`
makes one :class:`Partition` handle per entry, on first use, for
everything else.
"""

from __future__ import annotations

from math import inf
from typing import List, Optional, Sequence

from repro.errors import ScribeError
from repro.scribe.partition import Partition
from repro.types import sum_in_order


class Category:
    """A named set of partitions with weighted append."""

    def __init__(self, name: str, num_partitions: int) -> None:
        if num_partitions <= 0:
            raise ScribeError(
                f"category {name} needs at least one partition, got {num_partitions}"
            )
        self.name = name
        #: Per partition number: total bytes ever appended (the write
        #: frontier). Written in place only, so a reader may hold the list.
        self.heads: List[float] = [0.0] * num_partitions
        #: Per partition number: False while its brokers are unreachable
        #: (see :attr:`Partition.online`). Written in place only.
        self.online: List[bool] = [True] * num_partitions
        self._partitions: Optional[List[Partition]] = None
        self._weights: Optional[List[float]] = None

    @property
    def num_partitions(self) -> int:
        return len(self.heads)

    @property
    def partitions(self) -> List[Partition]:
        """One :class:`Partition` handle per partition, in partition
        order, made on first use (the step never needs them)."""
        if self._partitions is None:
            self._partitions = [
                Partition(f"{self.name}/{index}", self, index)
                for index in range(len(self.heads))
            ]
        return self._partitions

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
        if not all(0 <= weight < inf for weight in weights):
            raise ScribeError(f"weights must be finite and non-negative: {weights}")
        total = sum_in_order(weights)
        if not 0 < total < inf:
            raise ScribeError(
                f"weights must have a positive, finite sum: {weights}"
            )
        self._weights = [weight / total for weight in weights]

    def append(self, num_bytes: float) -> None:
        """Write ``num_bytes`` into the category, split by current weights.

        Each head takes the same ``+=`` :meth:`Partition.append` would
        make, in partition order, written back into :attr:`heads` in
        place; with ``num_bytes`` checked here and the weights finite and
        non-negative, no share can be negative or non-finite.
        """
        if not 0 <= num_bytes < inf:
            raise ScribeError(f"cannot append {num_bytes} bytes to {self.name}")
        heads = self.heads
        if self._weights is None:
            share = num_bytes / len(heads)
            heads[:] = [head + share for head in heads]
        else:
            heads[:] = [
                head + num_bytes * weight for head, weight in zip(heads, self._weights)
            ]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def total_head(self) -> float:
        """Total bytes ever written across all partitions."""
        return sum_in_order(self.heads)

    def slice_indices(self, task_index: int, task_count: int) -> range:
        """The partition numbers one task of a job owns.

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
        return range(task_index, len(self.heads), task_count)

    def __repr__(self) -> str:
        return f"Category({self.name!r}, partitions={self.num_partitions})"
