"""Physical hosts.

The production Scuba Tailer cluster runs on machines with 256 GB of memory
and 48–56 CPU cores (paper section VI); those are the defaults here. A host
carries zero or more Turbine containers; when the host dies, every container
on it dies with it.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.container import TurbineContainer
from repro.cluster.resources import ResourceVector
from repro.errors import ClusterError
from repro.types import ContainerId, HostId

#: Default host shape, matching the paper's Scuba Tailer fleet.
DEFAULT_HOST_CAPACITY = ResourceVector(
    cpu=48.0, memory_gb=256.0, disk_gb=2000.0, network_mbps=10_000.0
)


class Host:
    """A physical machine that hosts Turbine containers."""

    def __init__(
        self,
        host_id: HostId,
        capacity: Optional[ResourceVector] = None,
    ) -> None:
        self.host_id = host_id
        self.capacity = capacity if capacity is not None else DEFAULT_HOST_CAPACITY
        if self.capacity.any_negative():
            raise ClusterError(f"host {host_id} has negative capacity")
        self.alive = True
        self.containers: Dict[ContainerId, TurbineContainer] = {}

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def allocated(self) -> ResourceVector:
        """Total capacity handed out to containers on this host."""
        total = ResourceVector.zero()
        for container in self.containers.values():
            total = total + container.capacity
        return total

    @property
    def free(self) -> ResourceVector:
        """Capacity not yet carved into containers."""
        return (self.capacity - self.allocated).clamped_non_negative()

    def can_fit(self, request: ResourceVector) -> bool:
        """True if a container of shape ``request`` fits on this host."""
        return self.alive and request.fits_within(self.free)

    # ------------------------------------------------------------------
    # Container lifecycle
    # ------------------------------------------------------------------
    def attach(self, container: TurbineContainer) -> None:
        """Place a container on this host."""
        if not self.alive:
            raise ClusterError(f"host {self.host_id} is dead")
        if container.container_id in self.containers:
            raise ClusterError(
                f"container {container.container_id} already on host {self.host_id}"
            )
        if not container.capacity.fits_within(self.free):
            raise ClusterError(
                f"container {container.container_id} does not fit on host "
                f"{self.host_id} (free={self.free!r})"
            )
        container.host_id = self.host_id
        self.containers[container.container_id] = container

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Kill this host; every container on it dies too."""
        self.alive = False
        for container in self.containers.values():
            container.kill()

    def recover(self) -> None:
        """Bring the host back up with no containers (they must be re-placed)."""
        self.alive = True
        self.containers.clear()

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (
            f"Host({self.host_id!r}, {state}, "
            f"containers={len(self.containers)})"
        )
