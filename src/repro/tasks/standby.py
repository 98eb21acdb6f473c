"""Hot-standby replicas with sub-heartbeat takeover.

The reboot-clock math in section IV-C makes a cold recovery expensive: a
lost container costs the 40 s connection timeout (or the 60 s fail-over
interval) before its tasks even *begin* restarting elsewhere, plus a full
state restore for stateful jobs. For jobs that opt in
(``hot_standby: true`` in their config), the ``StandbyPlane`` keeps a
passive replica of every task placed on a container of a *different host*
than the primary. The replica tails the primary's checkpoint stream — its
state is warm — so when the primary's container dies, promotion is a
state flip on the next plane tick (1 s), not a reboot.

Exactly-once is preserved by construction:

* A passive replica is in ``TaskState.STANDBY``: ``step()`` processes
  nothing, so it can never duplicate the primary's work.
* Promotion happens only when no alive manager runs the primary, and every
  promotion is appended to the ``turbine.standby.promotions`` command log
  as a canonical-JSON record — the audit trail the takeover drill decodes.
* When the control plane eventually restarts the real task (shard
  fail-over), the Task Manager calls :meth:`release_for_start` *before*
  starting it, retiring the promoted replica first. Both incarnations
  advance the same per-partition checkpoints, so the handoff neither
  loses nor replays a byte.

Routine placement records no events; only promotions, handoffs, and
retirements land in the incident timeline — a fault-free run with the
plane attached renders the same timeline as one without it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.obs.bounded import BoundedList
from repro.tasks.runtime import RunningTask
from repro.tasks.spec import TaskSpec
from repro.types import (
    ContainerId,
    IncidentRecord,
    JobId,
    Seconds,
    TaskId,
    TaskState,
)

#: Plane tick. One tick is the promotion latency bound — well under the
#: 10 s heartbeat, let alone the 40 s reboot clock.
STANDBY_INTERVAL: Seconds = 1.0

#: Scribe category recording every promotion (the exactly-once audit log).
PROMOTION_LOG = "turbine.standby.promotions"


@dataclass(frozen=True)
class PromotionRecord:
    """One takeover, as kept in memory for reports and goldens."""

    time: Seconds
    task_id: TaskId
    container_id: ContainerId
    #: Seconds between the primary's last observed liveness and promotion.
    takeover_lag: Seconds


class StandbyPlane:
    """Places passive replicas and promotes them when primaries die."""

    def __init__(
        self,
        engine,
        platform,
        telemetry=None,
    ) -> None:
        self._engine = engine
        self._platform = platform
        self._telemetry = telemetry
        #: Where each task's replica currently lives.
        self.placements: Dict[TaskId, ContainerId] = {}
        #: Every takeover this plane performed.
        self.promotions: List[PromotionRecord] = []
        #: Incident events only ("standby-promote" | "standby-handoff" |
        #: "standby-retire" — never placement), so fault-free timelines
        #: are byte-identical with the plane off.
        self.events: BoundedList = BoundedList(maxlen=256)
        #: When each replicated task's primary was last seen alive — as of
        #: the last full tick; :meth:`_settle_stamps` adds the skipped ones.
        self._last_alive: Dict[TaskId, Seconds] = {}
        #: The opted-in roster and its sorted ids, as of the Task Service
        #: version they were built at (see :meth:`_refresh_roster`).
        self._wanted: Dict[TaskId, TaskSpec] = {}
        self._wanted_order: List[TaskId] = []
        self._wanted_version: Optional[int] = None
        #: The guard (see :meth:`_tick`): the input versions the last full
        #: tick began at, the tasks it found with a live primary, and the
        #: time of the last tick skipped since.
        self._seen: Optional[Tuple[int, int]] = None
        self._stamped: List[TaskId] = []
        self._skipped_at: Optional[Seconds] = None
        self._timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is not None:
            return
        self._timer = self._engine.every(
            STANDBY_INTERVAL, self._tick, name="standby-plane"
        )

    # ------------------------------------------------------------------
    # Reconcile tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        """Reconcile in full only when an input changed.

        The tick reads two counters: the roster's
        (``TaskService.version``) and the fleet's
        (``cluster.fleet_version``: container liveness, where tasks and
        replicas are hosted, the hosted tasks' states and
        ``task_managers`` membership). Each is bumped where its input is
        written. When both equal what the last full tick began at, that
        tick's writes included, a full tick would promote, place and
        retire nothing: only the time of this skipped tick is kept, for
        :meth:`_settle_stamps`.
        """
        platform = self._platform
        seen = (
            platform.task_service.version.value,
            platform.cluster.fleet_version.value,
        )
        if seen == self._seen:
            self._skipped_at = self._engine.now
            return
        self._seen = seen
        self._reconcile(self._engine.now)

    def _settle_stamps(self) -> None:
        """Write the liveness stamps the skipped ticks left out.

        A skipped tick would have found exactly the primaries the last
        full tick found alive still alive and stamped each with its own
        time, so the last skipped tick's time is the stamp that survives.
        """
        if self._skipped_at is not None:
            for task_id in self._stamped:
                self._last_alive[task_id] = self._skipped_at
            self._skipped_at = None

    def _reconcile(self, now: Seconds) -> None:
        """The full tick: retire, forget, promote and place replicas."""
        self._settle_stamps()
        self._refresh_roster()
        wanted = self._wanted
        stamped: List[TaskId] = []
        for task_id in sorted(self.placements):
            container_id = self.placements[task_id]
            manager = self._platform.task_managers.get(container_id)
            if task_id not in wanted:
                # Job gone or opted out: retire the replica quietly.
                if manager is not None:
                    manager.drop_standby(task_id)
                del self.placements[task_id]
                continue
            if (
                manager is None
                or not manager.alive
                or task_id not in manager.standbys
            ):
                # The replica itself was lost (host death, manager
                # reboot); forget it and re-place below.
                del self.placements[task_id]
                continue
            replica = manager.standbys[task_id]
            if self._primary_alive(wanted[task_id]):
                self._last_alive[task_id] = now
                stamped.append(task_id)
                if replica.promoted:
                    # Backstop only: the start-task handoff hook retires
                    # promoted replicas before a primary restarts, so
                    # reaching here means a primary started without the
                    # hook (e.g. on a manager the plane was never wired
                    # to). Never let two incarnations run a full tick.
                    manager.drop_standby(task_id)
                    del self.placements[task_id]
                    self.events.append(
                        IncidentRecord(
                            now, "standby-retire",
                            f"{task_id}: primary reappeared; promoted "
                            f"replica on {container_id} retired",
                        )
                    )
            elif not replica.promoted:
                self._promote(manager, replica, now)
        self._stamped = stamped
        alive: Optional[List[Tuple[ContainerId, str]]] = None
        for task_id in self._wanted_order:
            if task_id not in self.placements:
                if alive is None:
                    # At most once per tick, and only on a tick that has
                    # a replica to place: placing one changes no
                    # container's liveness or host.
                    alive = self._alive_containers()
                self._place(wanted[task_id], alive)

    def _alive_containers(self) -> List[Tuple[ContainerId, str]]:
        """Live ``(container id, host id)`` pairs in container-id order."""
        managers = self._platform.task_managers
        return [
            (container_id, managers[container_id].container.host_id)
            for container_id in sorted(managers)
            if managers[container_id].alive
        ]

    def _refresh_roster(self) -> None:
        """Rebuild the opted-in roster when the Task Service's spec table
        changed (its version bumps on every ``set_job_specs`` /
        ``remove_job`` — the roster's only input)."""
        service = self._platform.task_service
        if service.version.value != self._wanted_version:
            self._wanted_version = service.version.value
            self._wanted = {
                spec.task_id: spec
                for job_id in service.job_ids()
                for spec in service.specs_of(job_id)
                if spec.hot_standby
            }
            self._wanted_order = sorted(self._wanted)
            # A task that left the roster takes its liveness stamp with
            # it: a later task of the same id must not inherit it.
            self._last_alive = {
                task_id: seen
                for task_id, seen in self._last_alive.items()
                if task_id in self._wanted
            }

    # ------------------------------------------------------------------
    # Placement (host anti-affinity with the primary)
    # ------------------------------------------------------------------
    def _place(
        self, spec: TaskSpec, alive: List[Tuple[ContainerId, str]]
    ) -> None:
        """Place one replica among ``alive`` — this tick's live
        ``(container id, host id)`` pairs in container-id order."""
        primary = self._primary_manager(spec.job_id, spec.task_id)
        if primary is None:
            return  # Wait until the primary is placed; re-try next tick.
        primary_host = primary.container.host_id
        candidates = [
            container_id
            for container_id, host_id in alive
            if host_id != primary_host
        ]
        if not candidates:
            return
        target = candidates[spec.task_index % len(candidates)]
        replica = RunningTask(spec, self._platform.scribe, passive=True)
        self._platform.task_managers[target].adopt_standby(replica)
        self.placements[spec.task_id] = target
        self._last_alive.setdefault(spec.task_id, self._engine.now)

    # ------------------------------------------------------------------
    # Promotion and handoff
    # ------------------------------------------------------------------
    def _promote(self, manager, replica: RunningTask, now: Seconds) -> None:
        task_id = replica.spec.task_id
        replica.promote()
        failed_at = self._last_alive.get(task_id, now)
        lag = now - failed_at
        self.promotions.append(
            PromotionRecord(now, task_id, manager.container_id, lag)
        )
        # Durable, canonical-JSON audit record: the takeover drill decodes
        # this log to prove every promotion happened exactly once.
        self._platform.scribe.ensure_log(PROMOTION_LOG).append(
            json.dumps(
                {
                    "at": now,
                    "container": manager.container_id,
                    "op": "promote",
                    "task": task_id,
                },
                sort_keys=True,
            )
        )
        # The recovery-lag window closes at the replica's first progress
        # sample, measured from when the primary was last seen alive.
        manager.note_task_failure(task_id, failed_at)
        self.events.append(
            IncidentRecord(
                now, "standby-promote",
                f"{task_id}: promoted on {manager.container_id} "
                f"{lag:g}s after primary loss",
            )
        )
        if self._telemetry is not None:
            self._telemetry.inc("standby.promotions")

    def release_for_start(self, task_id: TaskId) -> None:
        """Retire this task's replica before its primary (re)starts.

        Called by every Task Manager from ``_start_task`` — the
        exactly-once half of the handoff protocol. A passive replica is
        simply dropped (and re-placed next tick against the new
        primary); a promoted one records the handoff in the timeline.
        The caller hosts the primary next, which bumps the fleet counter,
        so the next tick runs in full.
        """
        container_id = self.placements.pop(task_id, None)
        if container_id is None:
            return
        manager = self._platform.task_managers.get(container_id)
        if manager is None:
            return
        replica = manager.drop_standby(task_id)
        if replica is not None and replica.promoted:
            self.events.append(
                IncidentRecord(
                    self._engine.now, "standby-handoff",
                    f"{task_id}: primary restarting; promoted replica on "
                    f"{container_id} retired",
                )
            )
            if self._telemetry is not None:
                self._telemetry.inc("standby.handoffs")

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def reserved_memory_gb(self) -> float:
        """Extra fleet memory the replicas pin (the EXPERIMENTS.md cost)."""
        total = 0.0
        for task_id in sorted(self.placements):
            manager = self._platform.task_managers.get(
                self.placements[task_id]
            )
            if manager is None:
                continue
            replica = manager.standbys.get(task_id)
            if replica is not None:
                total += replica.spec.resources.memory_gb
        return total

    # ------------------------------------------------------------------
    # Primary liveness
    # ------------------------------------------------------------------
    def _primary_manager(self, job_id: JobId, task_id: TaskId):
        """The lowest-id live manager running the task, or ``None``.

        A lookup in the Task Managers' task-location index. The index
        also lists replica hosts and containers that died with their
        ``tasks`` intact (a killed container is emptied only by its
        ``shutdown``), so registration, liveness and ``tasks`` membership
        are checked here, at lookup.
        """
        managers = self._platform.task_managers
        hosts = self._platform.task_hosts.get(job_id, {}).get(task_id, ())
        for container_id in sorted(hosts):
            manager = managers.get(container_id)
            if (
                manager is not None
                and task_id in manager.tasks
                and manager.alive
            ):
                return manager
        return None

    def _primary_alive(self, spec: TaskSpec) -> bool:
        manager = self._primary_manager(spec.job_id, spec.task_id)
        if manager is None:
            return False
        return manager.tasks[spec.task_id].state in (
            TaskState.RUNNING, TaskState.STARTING
        )
