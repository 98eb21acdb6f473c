"""The shard load balancer.

"The algorithm ... does a bin-packing of shards to Turbine containers such
that the capacity constraint of each Turbine container is satisfied while
also a global resource balance is maintained across the cluster. The
resource balance is defined in terms of a utilization band per resource
type ... the total load of each Turbine container is within a band (e.g.
+/-10%) of the average of the Turbine container loads across the tier."
(paper section IV-B).

The implementation is a deterministic greedy rebalancer that (1) keeps the
existing assignment where possible (movement is not free — each move
restarts tasks), (2) places unassigned shards on the least-loaded
container, and (3) drains overloaded containers into underloaded ones until
every container is inside the band or no further improving move exists.
It maps 100 K shards onto thousands of containers well under the paper's
two-second figure (see ``benchmarks/test_placement_speed.py``).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.errors import PlacementError
from repro.types import ContainerId, ShardId, sum_in_order

#: "within a band (e.g +/-10%) of the average": the allowed relative
#: deviation of a container's load from the mean container load.
BAND = 0.10


@dataclass
class AssignmentChange:
    """The delta between the old and the new shard assignment."""

    assignment: Dict[ShardId, ContainerId]
    moves: List[Tuple[ShardId, Optional[ContainerId], ContainerId]] = field(
        default_factory=list
    )


def _scalar_load(
    load: ResourceVector, reference_capacity: ResourceVector
) -> float:
    """Collapse a multi-dimensional load to its dominant share.

    The balancer compares containers by dominant-share utilization against
    a common reference capacity, which makes CPU-heavy and memory-heavy
    shards commensurable.
    """
    return load.utilization_of(reference_capacity)


def compute_assignment(
    shard_loads: Mapping[ShardId, ResourceVector],
    container_capacities: Mapping[ContainerId, ResourceVector],
    current: Optional[Mapping[ShardId, ContainerId]] = None,
) -> AssignmentChange:
    """Produce a balanced shard-to-container assignment.

    Args:
        shard_loads: load of every shard in the tier.
        container_capacities: capacity of every live container.
        current: the existing assignment (shards on dead containers are
            treated as unassigned).

    Returns:
        The new assignment plus the move list.

    Raises:
        PlacementError: no containers.
    """
    if not container_capacities:
        raise PlacementError("cannot place shards on zero containers")
    current = current or {}

    container_ids = sorted(container_capacities)
    reference = _reference_capacity(container_capacities)

    scalar_loads = {
        shard_id: _scalar_load(load, reference)
        for shard_id, load in shard_loads.items()
    }
    sorted_shards = sorted(shard_loads)

    # Phase 1 — keep valid existing placements.
    placed: Dict[ShardId, ContainerId] = {}
    container_load: Dict[ContainerId, float] = {
        container_id: 0.0 for container_id in container_ids
    }
    shards_on: Dict[ContainerId, List[ShardId]] = {
        container_id: [] for container_id in container_ids
    }
    unassigned: List[ShardId] = []
    for shard_id in sorted_shards:
        container_id = current.get(shard_id)
        if container_id in container_load:
            placed[shard_id] = container_id
            container_load[container_id] += scalar_loads[shard_id]
            shards_on[container_id].append(shard_id)
        else:
            unassigned.append(shard_id)

    # Phase 2 — place unassigned shards, heaviest first, on the least
    # loaded container (a heap keeps this O(n log n)).
    moves: List[Tuple[ShardId, Optional[ContainerId], ContainerId]] = []
    heap = [(container_load[cid], cid) for cid in container_ids]
    heapq.heapify(heap)
    unassigned.sort(key=lambda shard_id: (-scalar_loads[shard_id], shard_id))
    for shard_id in unassigned:
        __, container_id = heapq.heappop(heap)
        placed[shard_id] = container_id
        new_load = container_load[container_id] + scalar_loads[shard_id]
        container_load[container_id] = new_load
        shards_on[container_id].append(shard_id)
        moves.append((shard_id, current.get(shard_id), container_id))
        heapq.heappush(heap, (new_load, container_id))

    # Phase 3 — drain containers above the band into containers below it.
    _rebalance_within_band(
        container_load, shards_on, scalar_loads, placed, moves, BAND,
    )
    return AssignmentChange(assignment=placed, moves=moves)


def _reference_capacity(
    container_capacities: Mapping[ContainerId, ResourceVector]
) -> ResourceVector:
    """Mean container capacity, the normalization basis for scalar loads."""
    total = ResourceVector.zero()
    for capacity in container_capacities.values():
        total = total + capacity
    return total.scaled(1.0 / len(container_capacities))


def _rebalance_within_band(
    container_load: Dict[ContainerId, float],
    shards_on: Dict[ContainerId, List[ShardId]],
    scalar_loads: Mapping[ShardId, float],
    placed: Dict[ShardId, ContainerId],
    moves: List[Tuple[ShardId, Optional[ContainerId], ContainerId]],
    band: float,
) -> None:
    """Move shards off overloaded containers until all are inside the band.

    Each round moves the best-fitting shard from the most loaded container
    to the least loaded one. The loop stops when the spread is inside the
    band or when no move improves it (a single shard can be too big to fit
    any band — the algorithm then leaves it where it is).
    """
    num_containers = len(container_load)
    if num_containers < 2:
        return
    total = sum_in_order(container_load.values())
    average = total / num_containers
    if average <= 0:
        return
    upper = average * (1.0 + band)
    lower = average * (1.0 - band)

    # Bounded number of rounds keeps worst-case latency predictable.
    max_rounds = max(64, 4 * len(scalar_loads) // max(1, num_containers))
    for __ in range(max_rounds):
        hottest = max(container_load, key=lambda c: (container_load[c], c))
        coldest = min(container_load, key=lambda c: (container_load[c], c))
        if container_load[hottest] <= upper and container_load[coldest] >= lower:
            return  # everyone inside the band
        excess = container_load[hottest] - average
        candidates = shards_on[hottest]
        if not candidates:
            return
        # The shard closest to (but not exceeding) the excess reduces the
        # overload most without overshooting the cold container.
        best = None
        best_key = None
        for shard_id in candidates:
            load = scalar_loads[shard_id]
            if load <= 0:
                continue
            overshoot = abs(excess - load)
            key = (load > excess, overshoot, shard_id)
            if best_key is None or key < best_key:
                best, best_key = shard_id, key
        if best is None:
            return
        moved_load = scalar_loads[best]
        new_cold = container_load[coldest] + moved_load
        new_hot = container_load[hottest] - moved_load
        # Only move when it strictly reduces the max of the pair.
        if max(new_cold, new_hot) >= container_load[hottest]:
            return
        shards_on[hottest].remove(best)
        shards_on[coldest].append(best)
        container_load[hottest] = new_hot
        container_load[coldest] = new_cold
        placed[best] = coldest
        moves.append((best, hottest, coldest))

