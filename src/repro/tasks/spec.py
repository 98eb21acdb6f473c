"""Task specifications.

"A Task Spec includes all configurations necessary to run a task, such as
package version, arguments, and number of threads." (paper section IV).
Specs are generated from a job's committed configuration by the Task
Service, one per task index, and are the unit the local Task Managers
consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.cluster.resources import ResourceVector
from repro.errors import TurbineError
from repro.jobs.model import JobView
from repro.types import JobId, Priority, TaskId


def task_id_for(job_id: JobId, task_index: int) -> TaskId:
    """Canonical task id: ``"<job_id>:<index>"``."""
    return f"{job_id}:{task_index}"


@dataclass(frozen=True)
class TaskSpec:
    """Everything a Task Manager needs to run one task."""

    task_id: TaskId
    job_id: JobId
    task_index: int
    task_count: int
    package_name: str
    package_version: str
    threads: int
    resources: ResourceVector
    input_category: str
    output_category: str = ""
    #: Output bytes per processed input byte.
    output_ratio: float = 1.0
    stateful: bool = False
    priority: Priority = Priority.NORMAL
    #: Ground-truth max stable processing rate per thread (MB/s) — used by
    #: the simulated runtime, opaque to the control plane.
    rate_per_thread_mb: float = 2.0
    state_key_cardinality: int = 0
    #: Constant per-task memory extra (message-size buffering), GB.
    memory_overhead_gb: float = 0.0
    #: Opt-in hot-standby replica: the standby plane keeps a passive
    #: copy of this task warm on a different host and promotes it when
    #: the primary's container dies. Deliberately NOT part of
    #: ``settings_fingerprint`` — toggling it must not restart the
    #: primary; only the standby plane reacts.
    hot_standby: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.task_index < self.task_count:
            raise TurbineError(
                f"task index {self.task_index} out of range "
                f"for {self.task_count} tasks"
            )
        # Every hosted task runs at least one thread: a container's
        # hosted-thread sum bounds its running threads from above.
        if self.threads < 1:
            raise TurbineError(
                f"task {self.task_id} needs at least one thread: {self.threads}"
            )

    @classmethod
    def from_job_config(
        cls, job_id: JobId, task_index: int, config: Dict[str, Any]
    ) -> "TaskSpec":
        """Generate the spec for one task from a committed job config.

        This is the "dynamic generation ... considering the job's
        parallelism level and applying other template substitutions"
        of section IV (read through the control plane's :class:`JobView`).
        """
        view = JobView.from_config(config)
        return cls.from_view(job_id, task_index, view, _resources_of(view))

    @classmethod
    def of_job(cls, job_id: JobId, view: JobView) -> List["TaskSpec"]:
        """Every task's spec of one job, from a config already read (one
        parse per job). The tasks share one :class:`ResourceVector`: it is
        immutable, and the fleet keeps one spec per task."""
        resources = _resources_of(view)
        return [
            cls.from_view(job_id, index, view, resources)
            for index in range(view.task_count)
        ]

    @classmethod
    def from_view(
        cls, job_id: JobId, task_index: int, view: JobView, resources: ResourceVector
    ) -> "TaskSpec":
        """One task's spec from a read config and its reservation."""
        return cls(
            output_category=view.output_category,
            output_ratio=view.output_ratio,
            task_id=task_id_for(job_id, task_index),
            job_id=job_id,
            task_index=task_index,
            task_count=view.task_count,
            package_name=view.package_name,
            package_version=view.package_version,
            threads=view.threads,
            resources=resources,
            input_category=view.input_category,
            stateful=view.stateful,
            priority=Priority(view.priority),
            rate_per_thread_mb=view.rate_per_thread_mb,
            state_key_cardinality=view.state_key_cardinality,
            memory_overhead_gb=view.memory_overhead_gb,
            hot_standby=view.hot_standby,
        )

    #: Specs are hashable on task_id + package version so managers can
    #: detect "same task, new settings" cheaply.
    def settings_fingerprint(self) -> tuple:
        """A tuple identifying the runtime-relevant settings of this spec.

        When the fingerprint of a task's spec changes, the Task Manager
        must restart the task to pick up the new settings.
        """
        return (
            self.package_name,
            self.package_version,
            self.threads,
            self.task_count,
            self.resources,
            self.input_category,
            self.output_category,
            self.rate_per_thread_mb,
        )


def _resources_of(view: JobView) -> ResourceVector:
    """The per-task reservation a job's config asks for."""
    return ResourceVector.from_dict(dict(view.resources))


#: Sentinel container capacity fraction: "the upper limit of vertical
#: scaling is set to a portion of resources available in a single container
#: (typically 1/5) to keep each task fine-grained enough to move"
#: (paper section V-E).
VERTICAL_LIMIT_FRACTION = 0.2
