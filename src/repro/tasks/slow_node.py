"""Gray-failure detection: find slow nodes that never fail a health check.

A gray node is the failure mode health checks cannot see: the container
heartbeats on time, its tasks stay RUNNING, but everything on it processes
at a fraction of its healthy rate (modelled by ``TaskManager.slow_factor``
and injected by the ``slow-node`` chaos fault). Lag accumulates, the
symptom detector eventually pages for the *job*, and nothing points at
the *node*.

The ``SlowNodeDetector`` closes that gap with the comparison the symptom
pipeline cannot make on its own: within each job, every task has the same
spec and an even partition slice, so all its tasks should process at
roughly the job-median rate. A task persistently below
``RATIO_THRESHOLD · median`` while its siblings keep up indicts its
*host*, not the job. Rates are
averaged over the detector's own evaluation window (deltas of each
task's processed-bytes counter), never instantaneous samples — bursty
sources make instantaneous rates read zero between bursts, which is
phase noise, not a gray node. After ``CONFIRMATIONS`` consecutive
suspicious evaluations the detector *drains* every container on the
suspect host through the Shard Manager — shards (and their tasks)
migrate to healthy nodes gracefully, the gray node keeps heartbeating
but receives no new placement — and un-drains it after a cooldown so a
recovered node rejoins the pool.

Fault-free fleets produce no suspicions, no drains, and no events, so
attaching the detector leaves every deterministic export byte-identical.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.obs.bounded import BoundedList
from repro.types import HostId, IncidentRecord, Seconds, TaskId, TaskState

#: How often rates are compared. One full burst period of the bursty
#: sources, so every task's window covers the same amount of arrivals.
EVAL_INTERVAL: Seconds = 60.0

#: A task is suspicious below this fraction of its job's median rate.
RATIO_THRESHOLD = 0.5

#: Consecutive suspicious evaluations before a host is drained —
#: one slow window is noise, two in a row is a gray node.
CONFIRMATIONS = 2

#: How long a drained host sits out before it may take shards again.
DRAIN_COOLDOWN: Seconds = 600.0


class SlowNodeDetector:
    """Compares per-task rates against the job median; drains gray hosts."""

    def __init__(
        self,
        engine,
        platform,
        telemetry=None,
    ) -> None:
        self._engine = engine
        self._platform = platform
        self._telemetry = telemetry
        #: Drained hosts and when they were drained.
        self.drained: Dict[HostId, Seconds] = {}
        #: Consecutive suspicious evaluations per host.
        self._suspicion: Dict[HostId, int] = {}
        #: task id → (processed-bytes counter, container) at the last
        #: tick; the delta over one interval is the task's averaged rate.
        self._last_totals: Dict[TaskId, Tuple[float, str]] = {}
        #: Incident events only ("gray-node-drain" | "gray-node-undrain")
        #: — empty when no node is gray.
        self.events: BoundedList = BoundedList(maxlen=256)
        self.drains = 0
        self._timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is not None:
            return
        self._timer = self._engine.every(
            EVAL_INTERVAL, self._tick, name="slow-node-detector"
        )

    # ------------------------------------------------------------------
    # Evaluation tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        now = self._engine.now
        for host_id in sorted(self.drained):
            if now - self.drained[host_id] >= DRAIN_COOLDOWN:
                for container_id in self._containers_on(host_id):
                    self._platform.shard_manager.undrain(container_id)
                del self.drained[host_id]
                self._suspicion.pop(host_id, None)
                self.events.append(
                    IncidentRecord(
                        now, "gray-node-undrain",
                        f"{host_id}: cooldown elapsed; host rejoins the "
                        "placement pool",
                    )
                )
        suspects = self._suspect_hosts()
        hosts = sorted(
            {
                manager.container.host_id
                for manager in self._platform.task_managers.values()
                if manager.alive
            }
        )
        for host_id in hosts:
            if host_id in self.drained:
                continue  # Already out of the pool; nothing to confirm.
            if host_id in suspects:
                count = self._suspicion.get(host_id, 0) + 1
                self._suspicion[host_id] = count
                if count >= CONFIRMATIONS:
                    self._drain(host_id, suspects[host_id], now)
            else:
                self._suspicion.pop(host_id, None)

    def _suspect_hosts(self) -> Dict[HostId, str]:
        """Hosts running a task persistently below its job median.

        Returns ``{host_id: evidence}`` for this evaluation round. Rates
        are window-averaged processed-bytes deltas: a task needs a
        sample from the previous tick on the *same* container to count
        (a moved or restarted task re-seeds its window instead of
        reporting a bogus negative delta).
        """
        by_job: Dict[str, List[Tuple[float, HostId, str]]] = {}
        managers = self._platform.task_managers
        seen: Dict[TaskId, Tuple[float, str]] = {}
        for container_id in sorted(managers):
            manager = managers[container_id]
            if not manager.alive:
                continue
            host_id = manager.container.host_id
            for task_id, task in sorted(manager.tasks.items()):
                if task.state != TaskState.RUNNING or task.restoring:
                    continue
                total = task.total_processed_mb
                seen[task_id] = (total, container_id)
                previous = self._last_totals.get(task_id)
                if previous is None or previous[1] != container_id:
                    continue  # First window on this container.
                if total < previous[0]:
                    continue  # Restarted in place; window re-seeds.
                rate = (total - previous[0]) / EVAL_INTERVAL
                by_job.setdefault(task.spec.job_id, []).append(
                    (rate, host_id, task_id)
                )
        self._last_totals = seen
        suspects: Dict[HostId, str] = {}
        for job_id in sorted(by_job):
            entries = by_job[job_id]
            if len(entries) < 2:
                continue  # No siblings to compare against.
            rates = sorted(rate for rate, __, __ in entries)
            mid = len(rates) // 2
            median = (
                rates[mid] if len(rates) % 2
                else (rates[mid - 1] + rates[mid]) / 2.0
            )
            if median <= 1e-9:
                continue  # Idle job: every rate is ~0, nothing to learn.
            for rate, host_id, task_id in entries:
                if rate < RATIO_THRESHOLD * median:
                    suspects.setdefault(
                        host_id,
                        f"{task_id} at {rate:.2f} MB/s vs job median "
                        f"{median:.2f} MB/s",
                    )
        return suspects

    def _containers_on(self, host_id: HostId) -> List[str]:
        managers = self._platform.task_managers
        return [
            container_id
            for container_id in sorted(managers)
            if managers[container_id].container.host_id == host_id
        ]

    def _drain(self, host_id: HostId, evidence: str, now: Seconds) -> None:
        for container_id in self._containers_on(host_id):
            self._platform.shard_manager.drain(container_id)
        self.drained[host_id] = now
        self.drains += 1
        self.events.append(
            IncidentRecord(
                now, "gray-node-drain",
                f"{host_id}: {evidence}; shards migrated off",
            )
        )
        if self._telemetry is not None:
            self._telemetry.inc("slownode.drains")
