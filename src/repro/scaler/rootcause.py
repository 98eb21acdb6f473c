"""Automatic root-cause analysis for untriaged problems.

Section V-D gives the taxonomy: "These problems can be caused by many
reasons including temporary hardware issues, bad user updates of the job
logic, dependency failures, and system bugs. Hardware issues typically
impact a single task of a misbehaving job; moving the task to another host
usually resolves this class of problems. If a lag is caused by a recent
user update, allocating more resources helps most of the time ...
Conversely, allocating more resources does not help in the case of
dependency failures or system bugs."

Section IX lists "machine learning techniques for automatic root cause
analysis" as future work; this module implements the rule-based version
the taxonomy directly supports (and the paper's section III mentions an
"auto root-causer" as a service added through the hierarchical config
design). Diagnoses map to the paper's mitigations:

* ``SINGLE_TASK_HARDWARE`` → move the task's shard to another container;
* ``BAD_USER_UPDATE``      → temporary resource boost (scaler will size it);
* ``DEPENDENCY_FAILURE``   → alert only — never scale (it would "generate
  even more traffic for the dependent service");
* ``UNKNOWN``              → operator alert.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.jobs.configs import ConfigLevel
from repro.jobs.service import JobService
from repro.metrics.store import MetricStore
from repro.tasks.shard import shard_id_for_task
from repro.tasks.shard_manager import ShardManager
from repro.types import JobId, Seconds, TaskId, TaskState


class Cause(enum.Enum):
    SINGLE_TASK_HARDWARE = "single_task_hardware"
    BAD_USER_UPDATE = "bad_user_update"
    DEPENDENCY_FAILURE = "dependency_failure"
    UNKNOWN = "unknown"


@dataclass
class Diagnosis:
    """The analyzer's verdict for one untriaged job."""

    job_id: JobId
    cause: Cause
    evidence: str
    #: The task implicated by a single-task diagnosis.
    suspect_task: Optional[TaskId] = None
    mitigated: bool = False
    mitigation: str = ""


#: Fraction of a job's tasks that must be healthy for a single straggler
#: to be blamed on hardware.
SINGLE_TASK_HEALTHY_FRACTION = 0.75

#: How recently a package change counts as "a recent user update".
RECENT_UPDATE_WINDOW: Seconds = 1800.0

#: Fraction of the cluster's jobs lagging simultaneously that indicates a
#: shared dependency failure rather than per-job problems.
DEPENDENCY_FRACTION = 0.5


class RootCauseAnalyzer:
    """Classifies untriaged problems and applies the safe mitigations."""

    def __init__(
        self,
        job_service: JobService,
        shard_manager: ShardManager,
        metrics: MetricStore,
    ) -> None:
        self._service = job_service
        self._shard_manager = shard_manager
        self._metrics = metrics
        self.diagnoses: List[Diagnosis] = []
        #: job_id -> (package_version, time) of the last observed change.
        self._package_seen: Dict[JobId, tuple] = {}

    # ------------------------------------------------------------------
    # Change tracking (fed by the caller's periodic loop)
    # ------------------------------------------------------------------
    def observe_configs(self, now: Seconds) -> None:
        """Record package versions so later lag can be correlated with
        recent updates. Stamps of deleted jobs go; live, not active: a
        quarantined job keeps its stamp."""
        for job_id in self._package_seen.keys() - set(self._service.job_ids()):
            del self._package_seen[job_id]
        for job_id in self._service.active_job_ids():
            version = self._service.view(job_id).package_version
            previous = self._package_seen.get(job_id)
            if previous is None:
                # First sight is provisioning, not a user update.
                self._package_seen[job_id] = (version, now, True)
            elif previous[0] != version:
                self._package_seen[job_id] = (version, now, False)

    def _recently_updated(self, job_id: JobId, now: Seconds) -> bool:
        seen = self._package_seen.get(job_id)
        if seen is None:
            return False
        version, when, is_initial = seen
        if is_initial:
            return False
        return now - when < RECENT_UPDATE_WINDOW

    # ------------------------------------------------------------------
    # Diagnosis
    # ------------------------------------------------------------------
    def diagnose(self, job_id: JobId, now: Seconds) -> Diagnosis:
        """Classify one untriaged job and record the diagnosis."""
        tasks = self._tasks_of(job_id)
        straggler = self._find_single_straggler(tasks)
        if straggler is not None:
            diagnosis = Diagnosis(
                job_id, Cause.SINGLE_TASK_HARDWARE,
                evidence=(
                    f"{len(tasks) - 1}/{len(tasks)} tasks healthy; "
                    f"{straggler} stalled"
                ),
                suspect_task=straggler,
            )
        elif self._cluster_wide_lag(now):
            diagnosis = Diagnosis(
                job_id, Cause.DEPENDENCY_FAILURE,
                evidence="majority of jobs lag simultaneously",
            )
        elif self._recently_updated(job_id, now):
            version = self._package_seen[job_id][0]
            diagnosis = Diagnosis(
                job_id, Cause.BAD_USER_UPDATE,
                evidence=f"package changed to {version!r} shortly before lag",
            )
        else:
            diagnosis = Diagnosis(
                job_id, Cause.UNKNOWN,
                evidence="no hardware, update, or dependency signature",
            )
        self.diagnoses.append(diagnosis)
        return diagnosis

    def _tasks_of(self, job_id: JobId):
        return [
            task
            for manager in self._shard_manager.live_managers()
            for task in manager.tasks.values()
            if task.spec.job_id == job_id
        ]

    def _find_single_straggler(self, tasks) -> Optional[TaskId]:
        """One stalled/crashed task while the rest process normally."""
        if len(tasks) < 3:
            return None
        healthy = [
            t for t in tasks
            if t.state == TaskState.RUNNING and t.last_rate_mb > 0
        ]
        stalled = [t for t in tasks if t not in healthy]
        if len(stalled) == 1 and len(healthy) >= len(tasks) * (
            SINGLE_TASK_HEALTHY_FRACTION
        ):
            return stalled[0].spec.task_id
        return None

    def _cluster_wide_lag(self, now: Seconds) -> bool:
        job_ids = self._service.active_job_ids()
        if len(job_ids) < 2:
            return False
        lagging = 0
        for job_id in job_ids:
            lag = self._metrics.latest(job_id, "time_lagged") or 0.0
            if lag > self._service.view(job_id).slo_lag_seconds:
                lagging += 1
        return lagging / len(job_ids) >= DEPENDENCY_FRACTION

    # ------------------------------------------------------------------
    # Mitigation
    # ------------------------------------------------------------------
    def mitigate(self, diagnosis: Diagnosis) -> bool:
        """Apply the paper's mitigation for a diagnosis; returns success.

        Dependency failures and unknowns are deliberately *not* mitigated
        — they need the human (or the future-work ML) in the loop.
        """
        if diagnosis.cause == Cause.SINGLE_TASK_HARDWARE:
            moved = self._move_task_shard(diagnosis.suspect_task)
            diagnosis.mitigated = moved
            diagnosis.mitigation = (
                f"moved shard of {diagnosis.suspect_task}" if moved
                else "no alternative container available"
            )
            return moved
        if diagnosis.cause == Cause.BAD_USER_UPDATE:
            self._service.patch(
                diagnosis.job_id, ConfigLevel.ONCALL,
                {"task_count_limit": 128},
            )
            diagnosis.mitigated = True
            diagnosis.mitigation = (
                "raised task-count limit; scaler will allocate more resources"
            )
            return True
        diagnosis.mitigation = "alert operator"
        return False

    def _move_task_shard(self, task_id: Optional[TaskId]) -> bool:
        if task_id is None:
            return False
        shard_id = shard_id_for_task(task_id, self._shard_manager.num_shards)
        source = self._shard_manager.assignment.get(shard_id)
        candidates = [
            manager.container_id
            for manager in self._shard_manager.live_managers()
            if manager.container_id != source
        ]
        if not candidates:
            return False
        destination = min(candidates)  # deterministic pick
        self._shard_manager._move_shard(shard_id, source, destination)
        return True
