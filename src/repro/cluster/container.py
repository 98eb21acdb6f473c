"""Turbine containers.

"The Turbine Container serves as the parent container managing a pool of
resources on each physical host. Stream processing tasks are run as children
containers below the Turbine Container." (paper section VIII). A container
tracks per-task resource reservations; the local Task Manager that runs
inside it lives in :mod:`repro.tasks.manager`.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.resources import ResourceVector
from repro.errors import CapacityError, ClusterError
from repro.types import ContainerId, HostId, TaskId, Version

#: Default container shape. The paper mentions a 26 GB memory capacity as an
#: example (section IV-B); CPU is sized so a host takes roughly 4 containers
#: and the 1/5-of-container vertical-scaling limit (section V-E) leaves room
#: for multi-threaded tasks.
DEFAULT_CONTAINER_CAPACITY = ResourceVector(
    cpu=10.0, memory_gb=26.0, disk_gb=400.0, network_mbps=2000.0
)


class TurbineContainer:
    """A parent Linux container obtained from Tupperware."""

    def __init__(
        self,
        container_id: ContainerId,
        capacity: Optional[ResourceVector] = None,
        liveness: Optional[Version] = None,
    ) -> None:
        self.container_id = container_id
        #: Bumped by :meth:`kill` and :meth:`reboot`, the only writers of
        #: ``alive``; the cluster shares one among all its containers.
        self.liveness = liveness if liveness is not None else Version()
        self.capacity = (
            capacity if capacity is not None else DEFAULT_CONTAINER_CAPACITY
        )
        if self.capacity.any_negative():
            raise ClusterError(f"container {container_id} has negative capacity")
        self.host_id: Optional[HostId] = None
        #: Region inherited from the host at attach time.
        self.region: str = "default"
        self.alive = True
        #: Per-task resource reservations of the child containers.
        self.reservations: Dict[TaskId, ResourceVector] = {}

    # ------------------------------------------------------------------
    # Capacity accounting
    # ------------------------------------------------------------------
    @property
    def reserved(self) -> ResourceVector:
        """Sum of all child task reservations."""
        total = ResourceVector.zero()
        for reservation in self.reservations.values():
            total = total + reservation
        return total

    @property
    def available(self) -> ResourceVector:
        """Capacity not yet reserved by child tasks."""
        return (self.capacity - self.reserved).clamped_non_negative()

    def utilization(self) -> float:
        """Dominant-share utilization of reservations against capacity."""
        return self.reserved.utilization_of(self.capacity)

    # ------------------------------------------------------------------
    # Child task reservations
    # ------------------------------------------------------------------
    def reserve(self, task_id: TaskId, request: ResourceVector) -> None:
        """Reserve resources for a child task.

        Reservations are allowed to exceed capacity: Turbine tolerates
        transient over-commitment and relies on the balancer to move shards
        off hot containers. A hard failure is raised only for a dead
        container or a duplicate reservation — both are protocol errors.
        """
        if not self.alive:
            raise ClusterError(f"container {self.container_id} is dead")
        if task_id in self.reservations:
            raise CapacityError(
                f"task {task_id} already reserved in {self.container_id}"
            )
        self.reservations[task_id] = request

    def release(self, task_id: TaskId) -> ResourceVector:
        """Drop a child task's reservation and return what it held."""
        try:
            return self.reservations.pop(task_id)
        except KeyError:
            raise CapacityError(
                f"task {task_id} has no reservation in {self.container_id}"
            ) from None

    # ------------------------------------------------------------------
    # Failure model
    # ------------------------------------------------------------------
    def kill(self) -> None:
        """Kill the container (host failure or forced fail-over)."""
        self.alive = False
        self.reservations.clear()
        self.liveness.bump()

    def reboot(self) -> None:
        """Reboot after a Shard Manager connection timeout (section IV-C).

        The rebooted container comes back empty; whether it keeps its shards
        depends on whether it reconnects before the fail-over interval.
        """
        self.alive = True
        self.reservations.clear()
        self.liveness.bump()

    def __repr__(self) -> str:
        state = "up" if self.alive else "DOWN"
        return (
            f"TurbineContainer({self.container_id!r}, {state}, "
            f"tasks={len(self.reservations)}, host={self.host_id!r})"
        )
