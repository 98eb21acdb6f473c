"""The Shard Manager.

Facebook's Shard Manager ("similar to Google's Slicer", paper section IV-A)
offers balanced assignment of shards to containers. This implementation
covers the three roles the paper describes:

* **Placement** — owns the shard-to-container mapping and regenerates it
  periodically (default every 30 minutes) from the latest shard loads via
  the bin-packing balancer.
* **Movement** — executes DROP_SHARD/ADD_SHARD against the source and
  destination Task Managers, dropping before adding so two containers never
  run the same shard. Requests that "take too long" trigger a forced kill.
* **Failure handling** — a bi-directional heartbeat protocol: a container
  whose heartbeat is older than the fail-over interval (60 s) is declared
  dead and its shards are re-placed. Task Managers time their connections
  out *earlier* (40 s) and reboot, which is what prevents split-brain
  duplicate tasks (section IV-C).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional

from repro.cluster.resources import ResourceVector
from repro.errors import (
    DegradedModeError,
    PlacementError,
    ServiceUnavailableError,
)
from repro.obs.bounded import BoundedList
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import NULL_TRACER, TraceEvent, Tracer
from repro.resilience import Dependency
from repro.sim.engine import Engine, Timer
from repro.tasks.balancer import compute_assignment
from repro.tasks.shard import all_shard_ids
from repro.types import ContainerId, Seconds, ShardId

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.tasks.manager import TaskManager

#: "default is 60 seconds" — heartbeat age at which a container is
#: declared dead.
FAILOVER_INTERVAL: Seconds = 60.0

#: How often the Shard Manager scans for stale heartbeats.
FAILOVER_CHECK_INTERVAL: Seconds = 10.0

#: "30 minutes for most of our tiers" — mapping regeneration period.
REBALANCE_INTERVAL: Seconds = 1800.0

#: Load assumed for a shard that has never reported (placement still needs
#: a value); tiny but non-zero so empty shards spread out.
DEFAULT_SHARD_LOAD = ResourceVector(cpu=0.01, memory_gb=0.05)

#: Retained :class:`FailoverEvent` history. Health reports only look one
#: hour back and long soaks fail containers constantly, so the audit list
#: must be bounded.
FAILOVER_RETENTION = 10_000


@dataclass
class FailoverEvent:
    """Record of one container fail-over (for tests and benchmarks)."""

    time: Seconds
    container_id: ContainerId
    shards_moved: int


class ShardManager:
    """Owns shard placement, movement, and container failure detection."""

    def __init__(
        self,
        engine: Engine,
        num_shards: int,
        rebalance_interval: Seconds = REBALANCE_INTERVAL,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if num_shards <= 0:
            raise PlacementError(f"num_shards must be positive: {num_shards}")
        self._engine = engine
        self.num_shards = num_shards
        self.rebalance_interval = rebalance_interval
        #: The authoritative mapping.
        self.assignment: Dict[ShardId, ContainerId] = {}
        #: Latest reported loads.
        self.shard_loads: Dict[ShardId, ResourceVector] = {}
        self._managers: Dict[ContainerId, "TaskManager"] = {}
        self._heartbeats: Dict[ContainerId, Seconds] = {}
        self._tracer = tracer or NULL_TRACER
        self._telemetry = telemetry or NULL_TELEMETRY
        self.failover_events: List[FailoverEvent] = BoundedList(
            maxlen=FAILOVER_RETENTION
        )
        self.rebalance_count = 0
        #: When False the Shard Manager is down: no placement changes, no
        #: failovers; Task Managers keep their shards (degraded mode).
        #: Set through the ``available`` property so recovery resets the
        #: heartbeat clocks (see the setter).
        self._available = True
        #: When False, periodic rebalancing is skipped (the Fig. 7
        #: experiment toggles this).
        self.balancing_enabled = True
        #: Containers administratively drained (e.g. by the slow-node
        #: detector): they stay registered and heartbeating — a gray node
        #: is *not* dead, and unregistering it would spuriously arm its
        #: 40 s reboot clock — but they receive no shard placement until
        #: un-drained.
        self.drained: set = set()
        self._timers: List[Timer] = []
        #: Counted edge toward the Task Managers it commands.
        self._manager_dep = Dependency("shard-manager.task-manager", self._telemetry)

    # ------------------------------------------------------------------
    # Availability (chaos hooks)
    # ------------------------------------------------------------------
    @property
    def available(self) -> bool:
        return self._available

    @available.setter
    def available(self, value: bool) -> None:
        value = bool(value)
        if value and not self._available:
            # Recovery grace: every heartbeat went stale during the
            # outage through no fault of the containers. Reset the clocks
            # so recovery does not trigger a spurious mass fail-over;
            # genuinely dead containers miss their next heartbeat and are
            # detected one failover interval later.
            now = self._engine.now
            for container_id in self._heartbeats:
                self._heartbeats[container_id] = now
        self._available = value

    def fail(self) -> None:
        """Begin an availability window: heartbeats, registrations, and
        load reports raise; placement and failovers pause."""
        self.available = False

    def recover(self) -> None:
        """End the availability window (with heartbeat grace)."""
        self.available = True

    # ------------------------------------------------------------------
    # Container registration and heartbeats
    # ------------------------------------------------------------------
    def register_container(self, manager: "TaskManager") -> None:
        """A new (or rebooted-and-reconnected) container joins the tier."""
        if not self.available:
            raise ServiceUnavailableError("Shard Manager is unavailable")
        self._managers[manager.container_id] = manager
        self._heartbeats[manager.container_id] = self._engine.now

    def unregister_container(self, container_id: ContainerId) -> None:
        """A container leaves the tier (decommission)."""
        self._managers.pop(container_id, None)
        self._heartbeats.pop(container_id, None)

    def heartbeat(self, container_id: ContainerId) -> None:
        """Record a Task Manager heartbeat.

        Raises :class:`ServiceUnavailableError` when the Shard Manager is
        down — a service-level outage that affects every container
        equally, so Task Managers keep their shards and do *not* start
        their 40-second reboot clock. Raises plain
        :class:`DegradedModeError` when the container is unknown — from
        this container's point of view its session is gone, which *is*
        the split-brain-risk case that must keep the reboot clock armed.
        """
        if not self.available:
            raise ServiceUnavailableError("Shard Manager is unavailable")
        if container_id not in self._managers:
            raise DegradedModeError(
                f"container {container_id} is not registered"
            )
        self._heartbeats[container_id] = self._engine.now

    def heartbeat_many(
        self, managers: Mapping[ContainerId, "TaskManager"]
    ) -> List["TaskManager"]:
        """:meth:`heartbeat` for many Task Managers in one call (the
        platform's heartbeat round, ``container id -> manager``): record
        one for every manager that is alive, reachable and registered,
        and return the others in order, each for :meth:`heartbeat`'s own
        path. Raises :class:`ServiceUnavailableError` when down, before
        recording any."""
        if not self.available:
            raise ServiceUnavailableError("Shard Manager is unavailable")
        now = self._engine.now
        heartbeats = self._heartbeats
        registered = self._managers
        own_path = []
        for container_id, manager in managers.items():
            if (
                container_id in registered
                and not manager.partitioned
                and manager.container.alive
            ):
                heartbeats[container_id] = now
            else:
                own_path.append(manager)
        return own_path

    def shards_of(self, container_id: ContainerId) -> List[ShardId]:
        """Shards currently assigned to a container (sorted)."""
        return sorted(
            shard_id
            for shard_id, owner in self.assignment.items()
            if owner == container_id
        )

    # ------------------------------------------------------------------
    # Load reports
    # ------------------------------------------------------------------
    def report_shard_load(self, shard_id: ShardId, load: ResourceVector) -> None:
        """Receive an aggregated shard load from a Task Manager."""
        if not self.available:
            raise ServiceUnavailableError("Shard Manager is unavailable")
        self.shard_loads[shard_id] = load

    # ------------------------------------------------------------------
    # Periodic operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the failover-check and rebalance timers."""
        if self._timers:
            return
        self._timers.append(
            self._engine.every(
                FAILOVER_CHECK_INTERVAL, self.check_failovers,
                name="shard-manager-failover",
            )
        )
        self._timers.append(
            self._engine.every(
                self.rebalance_interval, self.rebalance,
                name="shard-manager-rebalance",
            )
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def initial_placement(self) -> None:
        """Assign every shard in the tier to the registered containers."""
        self.rebalance(initial=True)

    def rebalance(self, initial: bool = False) -> None:
        """Regenerate the mapping from the latest loads and move shards.

        Skipped when the Shard Manager is degraded or balancing is
        disabled (unless this is the initial placement).
        """
        if not self.available:
            return
        if not self.balancing_enabled and not initial:
            return
        live = self._live_containers()
        if not live:
            return
        started_wall = perf_counter() if self._telemetry.enabled else 0.0
        change = self._placement(live, all_shard_ids(self.num_shards))
        if self._telemetry.enabled:
            self._telemetry.inc("balancer.rounds")
            self._telemetry.observe(
                "balancer.wall_ms", (perf_counter() - started_wall) * 1000.0
            )
            self._telemetry.observe("balancer.moves", float(len(change.moves)))
        self.rebalance_count += 1
        round_event: Optional[TraceEvent] = None
        if change.moves:
            round_event = self._tracer.record(
                "shard-manager",
                "initial-placement" if initial else "rebalance",
                moves=len(change.moves),
            )
        for shard_id, source, destination in change.moves:
            self._move_shard(shard_id, source, destination, parent=round_event)

    def _placement(
        self, live: Dict[ContainerId, "TaskManager"],
        shard_ids: Iterable[ShardId],
    ):
        """Place ``shard_ids`` on the ``live`` containers. What those
        containers already hold is kept where it is valid and counts as
        each one's starting load."""
        current = {
            shard_id: owner
            for shard_id, owner in self.assignment.items()
            if owner in live
        }
        return compute_assignment(
            {
                shard_id: self.shard_loads.get(shard_id, DEFAULT_SHARD_LOAD)
                for shard_id in (*current, *shard_ids)
            },
            {cid: manager.capacity for cid, manager in live.items()},
            current=current,
        )

    def _move_shard(
        self,
        shard_id: ShardId,
        source: Optional[ContainerId],
        destination: ContainerId,
        parent: Optional[TraceEvent] = None,
        jobs: Optional[List[str]] = None,
    ) -> None:
        """The DROP_SHARD → update map → ADD_SHARD protocol (section IV-A2)."""
        source_manager = self._managers.get(source) if source else None
        move_event: Optional[TraceEvent] = None
        if self._tracer.enabled:
            # Jobs must be collected *before* the drop empties the source.
            if jobs is None:
                jobs = self._jobs_on_shard(source_manager, shard_id)
            move_event = self._tracer.record(
                "shard-manager", "shard-move",
                parent=parent, shard=shard_id,
                origin=source or "", destination=destination, jobs=jobs,
                ops=(["DROP_SHARD", "ADD_SHARD"] if source
                     else ["ADD_SHARD"]),
            )
        if source_manager is not None and source_manager.alive:
            try:
                self._manager_dep.call(source_manager.drop_shard, shard_id)
            except TimeoutError:
                # "If a DROP_SHARD request takes too long, Turbine
                # forcefully kills the corresponding tasks."
                source_manager.force_kill_shard(shard_id)
        self.assignment[shard_id] = destination
        destination_manager = self._managers.get(destination)
        if destination_manager is not None and destination_manager.alive:
            if move_event is not None:
                # Tasks the ADD_SHARD starts parent onto this movement.
                self._tracer.set_shard_context(shard_id, move_event)
            try:
                self._manager_dep.call(destination_manager.add_shard, shard_id)
            except TimeoutError:
                # "... or initiates a Turbine container fail-over process."
                self._fail_over_container(destination)
            finally:
                if move_event is not None:
                    self._tracer.clear_shard_context(shard_id)

    @staticmethod
    def _jobs_on_shard(
        manager: Optional["TaskManager"], shard_id: ShardId
    ) -> List[str]:
        """Distinct job ids with tasks of the shard on the manager."""
        if manager is None:
            return []
        return sorted({
            task.spec.job_id
            for task in manager.tasks.values()
            if task.shard_id == shard_id
        })

    # ------------------------------------------------------------------
    # Failure detection
    # ------------------------------------------------------------------
    def check_failovers(self) -> None:
        """Declare containers with stale heartbeats dead and re-place
        their shards."""
        if not self.available:
            return
        now = self._engine.now
        stale = [
            container_id
            for container_id, last in self._heartbeats.items()
            if now - last >= FAILOVER_INTERVAL
        ]
        for container_id in stale:
            self._fail_over_container(container_id)

    def _fail_over_container(self, container_id: ContainerId) -> None:
        """Move every shard off a failed container onto live ones.

        If the container is still alive and this manager can reach it
        (an unresponsive-but-running Turbine container, e.g. a timed-out
        ADD_SHARD), it is rebooted first so its old tasks stop before
        their shards start elsewhere. A container cut off by a network
        partition cannot be told to reboot: its own 40 s connection
        timeout, shorter than the 60 s fail-over, must already have
        stopped its tasks (section IV-C).
        """
        manager = self._managers.get(container_id)
        orphaned = self.shards_of(container_id)
        # Per-shard job ids, captured before the reboot wipes the tasks.
        shard_jobs: Dict[ShardId, List[str]] = {}
        failover_event: Optional[TraceEvent] = None
        if self._tracer.enabled:
            shard_jobs = {
                shard_id: self._jobs_on_shard(manager, shard_id)
                for shard_id in orphaned
            }
            failover_event = self._tracer.record(
                "shard-manager", "failover",
                container=container_id, shards=len(orphaned),
                jobs=sorted({
                    job for jobs in shard_jobs.values() for job in jobs
                }),
            )
        self._telemetry.inc("shard_manager.failovers")
        if manager is not None and manager.alive and not manager.partitioned:
            manager.reboot()
        self.unregister_container(container_id)
        live = self._live_containers()
        if not live:
            # No capacity anywhere: shards stay mapped to the dead
            # container and will be picked up at the next rebalance.
            self.failover_events.append(
                FailoverEvent(self._engine.now, container_id, 0)
            )
            return
        # Place only the orphaned shards; existing placements are the
        # starting load of each container.
        placement = self._placement(live, orphaned)
        for shard_id in orphaned:
            self._move_shard(
                shard_id, None, placement.assignment[shard_id],
                parent=failover_event, jobs=shard_jobs.get(shard_id),
            )
        self.failover_events.append(
            FailoverEvent(self._engine.now, container_id, len(orphaned))
        )

    # ------------------------------------------------------------------
    # Administrative drain (gray-failure mitigation)
    # ------------------------------------------------------------------
    def drain(self, container_id: ContainerId) -> int:
        """Gracefully move every shard off a container and stop placing
        new ones there.

        The container keeps its registration and heartbeats (it is slow,
        not dead — see :mod:`repro.tasks.slow_node`), so neither its
        reboot clock nor the fail-over detector fires. Returns the number
        of shards moved.
        """
        if not self.available:
            return 0
        self.drained.add(container_id)
        orphaned = self.shards_of(container_id)
        if not orphaned:
            return 0
        live = self._live_containers()
        if not live:
            # Nowhere to move the shards: keep serving on the gray node
            # (slow beats stopped) and retry when capacity returns.
            self.drained.discard(container_id)
            return 0
        placement = self._placement(live, orphaned)
        drain_event: Optional[TraceEvent] = None
        if self._tracer.enabled:
            drain_event = self._tracer.record(
                "shard-manager", "drain",
                container=container_id, shards=len(orphaned),
            )
        for shard_id in orphaned:
            self._move_shard(
                shard_id, container_id, placement.assignment[shard_id],
                parent=drain_event,
            )
        self._telemetry.inc("shard_manager.drains")
        return len(orphaned)

    def undrain(self, container_id: ContainerId) -> None:
        """Return a drained container to the placement pool."""
        self.drained.discard(container_id)

    def live_managers(
        self, among: Optional[Iterable[ContainerId]] = None
    ) -> List["TaskManager"]:
        """All live registered Task Managers (sorted by container id).

        ``among`` restricts the answer to those container ids — same
        filter, same order — for callers that already know which
        containers can matter (the task-location index) and must not pay
        for the rest of the tier.
        """
        managers, drained = self._managers, self.drained
        return [
            managers[container_id]
            for container_id in sorted(managers if among is None else among)
            if container_id in managers
            and managers[container_id].alive
            and container_id not in drained
        ]

    def _live_containers(self) -> Dict[ContainerId, "TaskManager"]:
        """Placement targets: alive, not drained, and heard from within
        the fail-over interval — so one fail-over of a scan never hands
        shards to another container the same scan is about to fail over
        (two partitioned containers of one host go stale together)."""
        now, heartbeats = self._engine.now, self._heartbeats
        return {
            container_id: manager
            for container_id, manager in self._managers.items()
            if manager.alive and container_id not in self.drained
            and now - heartbeats[container_id] < FAILOVER_INTERVAL
        }

    def __repr__(self) -> str:
        return (
            f"ShardManager(shards={self.num_shards}, "
            f"containers={len(self._managers)})"
        )
