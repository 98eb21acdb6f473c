"""The Capacity Manager.

"The Capacity Manager monitors resource usage of jobs in a cluster and
makes sure each resource type has sufficient allocation cluster-wide ...
When cluster-level resource usage spikes up — e.g., during disaster
recovery — the Capacity Manager communicates with the Auto Scaler by
sending it the amount of remaining resources in the cluster and instructing
it to prioritize scaling up privileged jobs. In the extreme case of the
cluster running out of resources and becoming unstable, the Capacity
Manager is authorized to stop lower priority jobs and redistribute their
resources towards unblocking higher priority jobs faster." (paper
section V-F).
"""

from __future__ import annotations

from typing import List, Optional

from repro.obs.bounded import BoundedList

from repro.cluster.resources import ResourceVector
from repro.cluster.tupperware import TupperwareCluster
from repro.errors import DegradedModeError
from repro.jobs.plan import TaskActuator
from repro.jobs.service import JobService
from repro.scaler.proactive import AutoScaler
from repro.sim.engine import Engine, Timer
from repro.types import IncidentRecord, JobId, JobState, Priority, Seconds

#: Evaluation period.
INTERVAL: Seconds = 300.0

#: Dominant-share cluster utilization above which only privileged jobs may
#: scale up.
PRESSURE_THRESHOLD: float = 0.80

#: Utilization above which the cluster is "unstable" and low-priority jobs
#: are stopped.
INSTABILITY_THRESHOLD: float = 0.95

#: Priority floor imposed under pressure.
PRESSURE_FLOOR: Priority = Priority.HIGH

#: Retained ``CapacityManager.events`` audit records (bounded so endless
#: pressure flapping in soak tests cannot grow memory without limit).
EVENT_RETENTION: int = 10_000


class CapacityManager:
    """Cluster-wide resource oversight and priority-based preemption."""

    def __init__(
        self,
        engine: Engine,
        cluster: TupperwareCluster,
        job_service: JobService,
        scaler: AutoScaler,
        actuator: TaskActuator,
    ) -> None:
        self._engine = engine
        self._cluster = cluster
        self._service = job_service
        self._scaler = scaler
        self._actuator = actuator
        #: Audit records: what the capacity manager did and when
        #: ("pressure_on" | "pressure_off" | "job_stopped" | "job_resumed").
        self.events: List[IncidentRecord] = BoundedList(
            maxlen=EVENT_RETENTION
        )
        self.stopped_jobs: List[JobId] = []
        #: True while only privileged jobs may scale up.
        self.under_pressure = False
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        if self._timer is None:
            self._timer = self._engine.every(
                INTERVAL, self.run_once, name="capacity-manager"
            )

    def forget_job(self, job_id: JobId) -> None:
        """A deleted job is not resumed — nor is a later one of its id."""
        if job_id in self.stopped_jobs:
            self.stopped_jobs.remove(job_id)

    def held_jobs(self) -> List[JobId]:
        return self.stopped_jobs

    # ------------------------------------------------------------------
    # One evaluation round
    # ------------------------------------------------------------------
    def cluster_utilization(self) -> float:
        """Dominant-share reserved/capacity across live hosts."""
        capacity = self._cluster.total_capacity()
        reserved = self._cluster.total_reserved()
        return reserved.utilization_of(capacity)

    def run_once(self) -> None:
        try:
            self._service.store.ping()
        except DegradedModeError:
            # Job Store outage: stopping/resuming jobs needs store writes;
            # pressure decisions wait for the next round (degraded mode).
            return
        utilization = self.cluster_utilization()
        if utilization >= INSTABILITY_THRESHOLD:
            self._enter_pressure(utilization)
            self._shed_low_priority(utilization)
        elif utilization >= PRESSURE_THRESHOLD:
            self._enter_pressure(utilization)
        else:
            self._exit_pressure(utilization)
            self._maybe_resume_stopped()

    # ------------------------------------------------------------------
    # Pressure signalling to the Auto Scaler
    # ------------------------------------------------------------------
    def _enter_pressure(self, utilization: float) -> None:
        if self.under_pressure:
            return
        self.under_pressure = True
        self._scaler.priority_floor = PRESSURE_FLOOR
        self.events.append(
            IncidentRecord(
                self._engine.now, "pressure_on",
                f"utilization {utilization:.2f}; privileged jobs only",
            )
        )

    def _exit_pressure(self, utilization: float) -> None:
        if not self.under_pressure:
            return
        self.under_pressure = False
        self._scaler.priority_floor = Priority.LOW
        self.events.append(
            IncidentRecord(
                self._engine.now, "pressure_off",
                f"utilization {utilization:.2f}",
            )
        )

    # ------------------------------------------------------------------
    # Last resort: stopping low-priority jobs
    # ------------------------------------------------------------------
    def _shed_low_priority(self, utilization: float) -> None:
        """Stop the lowest-priority jobs until the cluster is stable.

        "Turbine throttles resource consumption by stopping tasks only as a
        last resort, and does so by prioritizing the availability of tasks
        belonging to high business value applications." (section VIII).
        """
        candidates = sorted(
            (self._service.view(job_id).priority, job_id)
            for job_id in self._service.active_job_ids()
        )
        for priority, job_id in candidates:
            if self.cluster_utilization() < INSTABILITY_THRESHOLD:
                return
            if priority >= Priority.HIGH:
                break  # never stop privileged jobs
            self._service.store.set_state(job_id, JobState.STOPPED)
            self._actuator.stop_tasks(job_id)
            self.stopped_jobs.append(job_id)
            self.events.append(
                IncidentRecord(
                    self._engine.now, "job_stopped",
                    f"{job_id} (priority {Priority(priority).name})",
                )
            )

    def _maybe_resume_stopped(self) -> None:
        """Bring back jobs we stopped, once there is room for them again:
        the cluster's utilization *with* the job's own reservation (its
        task count times its per-task resources) must stay under the
        pressure threshold, or resuming it re-creates the squeeze that
        shed it."""
        while self.stopped_jobs:
            job_id = self.stopped_jobs[0]
            if not self._service.store.exists(job_id):
                self.stopped_jobs.pop(0)
                continue
            view = self._service.view(job_id)
            own = ResourceVector.from_dict(dict(view.resources)).scaled(
                view.task_count
            )
            capacity = self._cluster.total_capacity()
            reserved = self._cluster.total_reserved() + own
            if reserved.utilization_of(capacity) >= PRESSURE_THRESHOLD:
                return
            self.stopped_jobs.pop(0)
            self._service.store.set_state(job_id, JobState.RUNNING)
            # Invalidating the running config makes the State Syncer
            # re-create the job's tasks on its next round.
            self._service.store.commit_running(job_id, {})
            self.events.append(
                IncidentRecord(self._engine.now, "job_resumed", job_id)
            )

    # ------------------------------------------------------------------
    # Host transfer (storm drills)
    # ------------------------------------------------------------------
    def lend_hosts(self, count: int) -> List[str]:
        """Remove ``count`` live hosts from this cluster and return their
        ids — "authorized to temporarily transfer resources between
        different clusters"."""
        lent = []
        for host in list(self._cluster.live_hosts()):
            if len(lent) >= count:
                break
            self._cluster.remove_host(host.host_id)
            lent.append(host.host_id)
        return lent
