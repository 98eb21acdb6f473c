"""Unit and property tests for the bin-packing shard balancer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import ResourceVector
from repro.errors import PlacementError
from repro.tasks import compute_assignment


def uniform_containers(count, cpu=8.0, mem=32.0):
    return {
        f"c{i}": ResourceVector(cpu=cpu, memory_gb=mem) for i in range(count)
    }


def uniform_shards(count, cpu=0.5, mem=1.0):
    return {
        f"shard-{i:05d}": ResourceVector(cpu=cpu, memory_gb=mem)
        for i in range(count)
    }


def load_spread(container_load):
    """Max relative deviation from the mean load (0 = perfectly balanced)."""
    if not container_load:
        return 0.0
    loads = list(container_load.values())
    average = sum(loads) / len(loads)
    if average <= 0:
        return 0.0
    return max(abs(load - average) for load in loads) / average


def container_loads(change, shard_loads, containers):
    reference = ResourceVector.zero()
    for capacity in containers.values():
        reference = reference + capacity
    reference = reference.scaled(1.0 / len(containers))
    loads = {cid: 0.0 for cid in containers}
    for shard_id, cid in change.assignment.items():
        loads[cid] += shard_loads[shard_id].utilization_of(reference)
    return loads


class TestBasics:
    def test_every_shard_assigned(self):
        shards = uniform_shards(100)
        containers = uniform_containers(10)
        change = compute_assignment(shards, containers)
        assert set(change.assignment) == set(shards)
        assert set(change.assignment.values()) <= set(containers)

    def test_no_containers_rejected(self):
        with pytest.raises(PlacementError):
            compute_assignment(uniform_shards(4), {})

    def test_invalid_band_rejected(self):
        with pytest.raises(PlacementError):
            compute_assignment(uniform_shards(1), uniform_containers(1), band=0)

    def test_invalid_headroom_rejected(self):
        with pytest.raises(PlacementError):
            compute_assignment(
                uniform_shards(1), uniform_containers(1), headroom=1.0
            )

    def test_empty_shards_ok(self):
        change = compute_assignment({}, uniform_containers(3))
        assert change.assignment == {}
        assert change.num_moves == 0

    def test_deterministic(self):
        shards = uniform_shards(200)
        containers = uniform_containers(7)
        a = compute_assignment(shards, containers)
        b = compute_assignment(shards, containers)
        assert a.assignment == b.assignment


class TestBalance:
    def test_uniform_shards_balance_within_band(self):
        shards = uniform_shards(1000)
        containers = uniform_containers(10)
        change = compute_assignment(shards, containers, band=0.10)
        loads = container_loads(change, shards, containers)
        assert load_spread(loads) <= 0.10 + 1e-9

    def test_heterogeneous_shards_balance(self):
        shards = {}
        for i in range(300):
            cpu = 0.1 + (i % 10) * 0.2  # loads from 0.1 to 1.9 cores
            shards[f"shard-{i:05d}"] = ResourceVector(cpu=cpu, memory_gb=0.5)
        containers = uniform_containers(12)
        change = compute_assignment(shards, containers, band=0.10)
        loads = container_loads(change, shards, containers)
        assert load_spread(loads) <= 0.15, "small spread even with skew"

    def test_single_giant_shard_tolerated(self):
        """One shard can exceed any band; the balancer must not loop."""
        shards = uniform_shards(10, cpu=0.1)
        shards["shard-big"] = ResourceVector(cpu=50.0)
        change = compute_assignment(shards, uniform_containers(4))
        assert "shard-big" in change.assignment


class TestStability:
    def test_balanced_assignment_unchanged(self):
        """Re-running on an already balanced assignment moves nothing —
        rebalancing every 30 minutes must not churn a quiet cluster."""
        shards = uniform_shards(100)
        containers = uniform_containers(10)
        first = compute_assignment(shards, containers)
        second = compute_assignment(shards, containers, current=first.assignment)
        assert second.num_moves == 0
        assert second.assignment == first.assignment

    def test_new_container_draws_shards(self):
        shards = uniform_shards(100)
        containers = uniform_containers(4)
        first = compute_assignment(shards, containers)
        containers_grown = uniform_containers(5)
        second = compute_assignment(
            shards, containers_grown, current=first.assignment
        )
        drawn = [cid for cid in second.assignment.values() if cid == "c4"]
        assert len(drawn) >= 10, "the empty container should absorb load"

    def test_dead_container_shards_reassigned(self):
        shards = uniform_shards(100)
        containers = uniform_containers(5)
        first = compute_assignment(shards, containers)
        survivors = {cid: cap for cid, cap in containers.items() if cid != "c0"}
        second = compute_assignment(shards, survivors, current=first.assignment)
        assert set(second.assignment.values()) <= set(survivors)
        # Shards that stayed on live containers did not move.
        for shard_id, cid in first.assignment.items():
            if cid != "c0":
                assert second.assignment[shard_id] == cid

    def test_hot_shard_drains_from_overloaded_container(self):
        shards = uniform_shards(20, cpu=0.2)
        containers = uniform_containers(2)
        # Start with everything crammed onto c0.
        current = {shard_id: "c0" for shard_id in shards}
        change = compute_assignment(shards, containers, current=current)
        loads = container_loads(change, shards, containers)
        assert load_spread(loads) <= 0.10 + 1e-9
        assert change.num_moves > 0


class TestProperties:
    @settings(max_examples=30, deadline=None)
    @given(
        num_shards=st.integers(min_value=0, max_value=120),
        num_containers=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_total_assignment_invariant(self, num_shards, num_containers, seed):
        import random

        rng = random.Random(seed)
        shards = {
            f"shard-{i:05d}": ResourceVector(
                cpu=rng.uniform(0.01, 2.0), memory_gb=rng.uniform(0.1, 4.0)
            )
            for i in range(num_shards)
        }
        containers = uniform_containers(num_containers)
        change = compute_assignment(shards, containers)
        # Every shard assigned exactly once, to a real container.
        assert set(change.assignment) == set(shards)
        assert set(change.assignment.values()) <= set(containers)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=1000))
    def test_moves_consistent_with_assignment(self, seed):
        import random

        rng = random.Random(seed)
        shards = {
            f"shard-{i:05d}": ResourceVector(cpu=rng.uniform(0.05, 1.0))
            for i in range(60)
        }
        containers = uniform_containers(5)
        current = {
            shard_id: f"c{rng.randrange(5)}" for shard_id in list(shards)[:40]
        }
        change = compute_assignment(shards, containers, current=current)
        # Following the move list from `current` reproduces the assignment.
        replay = dict(current)
        for shard_id, __, destination in change.moves:
            replay[shard_id] = destination
        assert replay == change.assignment
