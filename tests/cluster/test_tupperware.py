"""Unit tests for the Tupperware cluster stand-in."""

import pytest

from repro.cluster import ResourceVector, TupperwareCluster
from repro.errors import CapacityError, ClusterError


def small_cluster(hosts=3):
    cluster = TupperwareCluster()
    for index in range(hosts):
        cluster.add_host(f"host-{index}")
    return cluster


class TestHostManagement:
    def test_add_duplicate_host_rejected(self):
        cluster = small_cluster(1)
        with pytest.raises(ClusterError):
            cluster.add_host("host-0")

    def test_fail_host_kills_its_containers(self):
        cluster = small_cluster(2)
        container = cluster.allocate_container(host_id="host-0")
        cluster.fail_host("host-0")
        assert not container.alive
        assert container.container_id not in cluster.containers
        assert len(cluster.live_hosts()) == 1

    def test_fail_host_notifies_listeners(self):
        cluster = small_cluster(2)
        failed = []
        cluster.on_host_failure.append(failed.append)
        cluster.fail_host("host-1")
        assert failed == ["host-1"]

    def test_fail_dead_host_is_noop(self):
        cluster = small_cluster(1)
        notified = []
        cluster.on_host_failure.append(notified.append)
        cluster.fail_host("host-0")
        cluster.fail_host("host-0")
        assert notified == ["host-0"]

    def test_recover_host_rejoins_pool(self):
        cluster = small_cluster(2)
        cluster.fail_host("host-0")
        cluster.recover_host("host-0")
        assert len(cluster.live_hosts()) == 2

    def test_remove_host_decommissions(self):
        cluster = small_cluster(2)
        cluster.remove_host("host-0")
        assert "host-0" not in cluster.hosts

    def test_unknown_host_rejected(self):
        with pytest.raises(ClusterError):
            small_cluster(1).fail_host("nope")


class TestContainerAllocation:
    def test_allocation_spreads_across_hosts(self):
        cluster = small_cluster(3)
        containers = [cluster.allocate_container() for __ in range(3)]
        hosts_used = {container.host_id for container in containers}
        assert len(hosts_used) == 3, "least-allocated host should be picked"

    def test_allocation_on_specific_host(self):
        cluster = small_cluster(2)
        container = cluster.allocate_container(host_id="host-1")
        assert container.host_id == "host-1"

    def test_allocation_fails_when_full(self):
        cluster = TupperwareCluster()
        cluster.add_host("tiny", ResourceVector(cpu=4.0, memory_gb=20.0))
        with pytest.raises(CapacityError):
            cluster.allocate_container()  # default container needs 6 CPU

    def test_allocate_fleet(self):
        cluster = small_cluster(3)
        fleet = cluster.allocate_fleet(containers_per_host=2)
        assert len(fleet) == 6
        per_host = {}
        for container in fleet:
            per_host[container.host_id] = per_host.get(container.host_id, 0) + 1
        assert all(count == 2 for count in per_host.values())


class TestAggregates:
    def test_total_capacity_counts_live_hosts_only(self):
        cluster = small_cluster(2)
        full = cluster.total_capacity()
        cluster.fail_host("host-0")
        assert cluster.total_capacity().cpu == pytest.approx(full.cpu / 2)

    def test_total_reserved_tracks_tasks(self):
        cluster = small_cluster(1)
        container = cluster.allocate_container()
        container.reserve("t1", ResourceVector(cpu=2.0))
        assert cluster.total_reserved().cpu == 2.0

    def test_live_listings_are_sorted(self):
        cluster = small_cluster(3)
        cluster.allocate_fleet(1)
        host_ids = [host.host_id for host in cluster.live_hosts()]
        assert host_ids == sorted(host_ids)
        container_ids = [c.container_id for c in cluster.live_containers()]
        assert container_ids == sorted(container_ids)
