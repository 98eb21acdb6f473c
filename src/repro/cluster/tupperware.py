"""The Tupperware stand-in: host fleet and container allocation.

Turbine "integrates with Facebook's container manager (Tupperware) and
obtains an allocation of Linux containers" (paper section IV). This class
provides that allocation API plus the host add/remove operations that
section IV-D says are fully automated ("making Turbine elastic to use up
all available resources").
"""

from __future__ import annotations

import itertools
from typing import Callable, Dict, List, Optional

from repro.cluster.container import DEFAULT_CONTAINER_CAPACITY, TurbineContainer
from repro.cluster.host import Host
from repro.cluster.resources import ResourceVector
from repro.errors import CapacityError, ClusterError
from repro.types import ContainerId, HostId, Version


class TupperwareCluster:
    """A fleet of hosts and the Turbine containers carved out of them."""

    def __init__(self) -> None:
        self.hosts: Dict[HostId, Host] = {}
        self.containers: Dict[ContainerId, TurbineContainer] = {}
        self._container_counter = itertools.count()
        #: Bumped whenever one of this cluster's containers is killed or
        #: rebooted: while it holds still, no container's ``alive`` moved.
        self.liveness = Version()
        #: Callbacks invoked with the host id whenever a host dies. The
        #: Shard Manager subscribes to learn about lost containers.
        self.on_host_failure: List[Callable[[HostId], None]] = []

    # ------------------------------------------------------------------
    # Host management
    # ------------------------------------------------------------------
    def add_host(
        self,
        host_id: HostId,
        capacity: Optional[ResourceVector] = None,
        region: str = "default",
    ) -> Host:
        """Register a new physical host."""
        if host_id in self.hosts:
            raise ClusterError(f"host {host_id} already exists")
        host = Host(host_id, capacity, region=region)
        self.hosts[host_id] = host
        return host

    def remove_host(self, host_id: HostId) -> None:
        """Decommission a host. Containers on it are killed first."""
        host = self._get_host(host_id)
        self.fail_host(host_id)
        del self.hosts[host.host_id]

    def fail_host(self, host_id: HostId) -> None:
        """Simulate a host crash; kills its containers and notifies listeners."""
        host = self._get_host(host_id)
        if not host.alive:
            return
        dead_container_ids = list(host.containers)
        host.fail()
        for container_id in dead_container_ids:
            del self.containers[container_id]
        for callback in self.on_host_failure:
            callback(host_id)

    def recover_host(self, host_id: HostId) -> None:
        """Bring a failed host back into the pool, empty."""
        self._get_host(host_id).recover()

    def _get_host(self, host_id: HostId) -> Host:
        try:
            return self.hosts[host_id]
        except KeyError:
            raise ClusterError(f"unknown host {host_id}") from None

    # ------------------------------------------------------------------
    # Container allocation
    # ------------------------------------------------------------------
    def allocate_container(
        self,
        capacity: Optional[ResourceVector] = None,
        host_id: Optional[HostId] = None,
    ) -> TurbineContainer:
        """Carve a Turbine container out of a host.

        With no ``host_id``, the least-allocated live host that fits is
        chosen (ties broken by host id for determinism).
        """
        shape = capacity if capacity is not None else DEFAULT_CONTAINER_CAPACITY
        if host_id is not None:
            host = self._get_host(host_id)
            if not host.can_fit(shape):
                raise CapacityError(
                    f"host {host_id} cannot fit a container of {shape!r}"
                )
        else:
            host = self._pick_host(shape)
        container_id = f"turbine-{next(self._container_counter)}"
        container = TurbineContainer(container_id, shape, liveness=self.liveness)
        host.attach(container)
        self.containers[container_id] = container
        return container

    def allocate_fleet(
        self,
        containers_per_host: int,
        capacity: Optional[ResourceVector] = None,
    ) -> List[TurbineContainer]:
        """Allocate ``containers_per_host`` containers on every live host."""
        allocated = []
        for host in self.live_hosts():
            for __ in range(containers_per_host):
                allocated.append(
                    self.allocate_container(capacity, host_id=host.host_id)
                )
        return allocated

    def _pick_host(self, shape: ResourceVector) -> Host:
        candidates = [host for host in self.live_hosts() if host.can_fit(shape)]
        if not candidates:
            raise CapacityError(
                f"no live host can fit a container of {shape!r}"
            )
        return min(
            candidates,
            key=lambda host: (host.allocated.utilization_of(host.capacity), host.host_id),
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def live_hosts(self) -> List[Host]:
        """All hosts currently up, in id order (deterministic)."""
        return sorted(
            (host for host in self.hosts.values() if host.alive),
            key=lambda host: host.host_id,
        )

    def live_containers(self) -> List[TurbineContainer]:
        """All containers currently up, in id order (deterministic)."""
        return sorted(
            (c for c in self.containers.values() if c.alive),
            key=lambda container: container.container_id,
        )

    def total_capacity(self) -> ResourceVector:
        """Aggregate capacity of all live hosts."""
        total = ResourceVector.zero()
        for host in self.live_hosts():
            total = total + host.capacity
        return total

    def total_reserved(self) -> ResourceVector:
        """Aggregate child-task reservations across live containers."""
        total = ResourceVector.zero()
        for container in self.live_containers():
            total = total + container.reserved
        return total

    def __repr__(self) -> str:
        return (
            f"TupperwareCluster(hosts={len(self.hosts)}, "
            f"containers={len(self.containers)})"
        )
