"""Unit tests for hosts and Turbine containers."""

import pytest

from repro.cluster import Host, ResourceVector, TurbineContainer
from repro.errors import CapacityError, ClusterError


def make_container(cid="c0", cpu=6.0, mem=26.0):
    return TurbineContainer(cid, ResourceVector(cpu=cpu, memory_gb=mem))


class TestHost:
    def test_default_capacity_matches_paper_fleet(self):
        host = Host("h0")
        assert host.capacity.memory_gb == 256.0
        assert host.capacity.cpu >= 48.0

    def test_attach_accounts_allocation(self):
        host = Host("h0")
        container = make_container()
        host.attach(container)
        assert host.allocated.cpu == 6.0
        assert host.free.cpu == host.capacity.cpu - 6.0
        assert container.host_id == "h0"

    def test_attach_duplicate_rejected(self):
        host = Host("h0")
        container = make_container()
        host.attach(container)
        with pytest.raises(ClusterError):
            host.attach(container)

    def test_attach_beyond_capacity_rejected(self):
        host = Host("h0", ResourceVector(cpu=4.0, memory_gb=16.0))
        with pytest.raises(ClusterError):
            host.attach(make_container(cpu=6.0))

    def test_fail_kills_containers(self):
        host = Host("h0")
        container = make_container()
        host.attach(container)
        host.fail()
        assert not host.alive
        assert not container.alive

    def test_attach_to_dead_host_rejected(self):
        host = Host("h0")
        host.fail()
        with pytest.raises(ClusterError):
            host.attach(make_container())

    def test_recover_comes_back_empty(self):
        host = Host("h0")
        host.attach(make_container())
        host.fail()
        host.recover()
        assert host.alive
        assert not host.containers

    def test_can_fit(self):
        host = Host("h0", ResourceVector(cpu=10.0, memory_gb=52.0))
        assert host.can_fit(ResourceVector(cpu=6.0, memory_gb=26.0))
        host.attach(make_container())
        assert host.can_fit(ResourceVector(cpu=4.0, memory_gb=26.0))
        assert not host.can_fit(ResourceVector(cpu=5.0, memory_gb=26.0))


class TestTurbineContainer:
    def test_reserve_and_release(self):
        container = make_container()
        container.reserve("t1", ResourceVector(cpu=1.0, memory_gb=2.0))
        assert container.reserved.cpu == 1.0
        assert container.available.cpu == 5.0
        released = container.release("t1")
        assert released.cpu == 1.0
        assert container.reserved == ResourceVector.zero()

    def test_duplicate_reservation_rejected(self):
        container = make_container()
        container.reserve("t1", ResourceVector(cpu=1.0))
        with pytest.raises(CapacityError):
            container.reserve("t1", ResourceVector(cpu=1.0))

    def test_overcommit_allowed(self):
        """Turbine tolerates transient over-commitment; the balancer fixes it."""
        container = make_container(cpu=2.0)
        container.reserve("t1", ResourceVector(cpu=1.5))
        container.reserve("t2", ResourceVector(cpu=1.5))
        assert container.utilization() > 1.0


    def test_release_unknown_task_rejected(self):
        with pytest.raises(CapacityError):
            make_container().release("nope")

    def test_kill_clears_reservations(self):
        container = make_container()
        container.reserve("t1", ResourceVector(cpu=1.0))
        container.kill()
        assert not container.alive
        assert not container.reservations

    def test_reserve_on_dead_container_rejected(self):
        container = make_container()
        container.kill()
        with pytest.raises(ClusterError):
            container.reserve("t1", ResourceVector(cpu=1.0))

    def test_reboot_comes_back_empty_and_alive(self):
        container = make_container()
        container.reserve("t1", ResourceVector(cpu=1.0))
        container.reboot()
        assert container.alive
        assert not container.reservations

    def test_utilization_dominant_share(self):
        container = make_container(cpu=4.0, mem=8.0)
        container.reserve("t1", ResourceVector(cpu=1.0, memory_gb=6.0))
        assert container.utilization() == pytest.approx(0.75)
