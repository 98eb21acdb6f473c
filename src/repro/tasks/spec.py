"""Task specifications.

"A Task Spec includes all configurations necessary to run a task, such as
package version, arguments, and number of threads." (paper section IV).
Specs are generated from a job's committed configuration by the Task
Service, one per task index, and are the unit the local Task Managers
consume.

The Task Service builds them "considering the job's parallelism level and
applying other template substitutions" (section IV), and that is how they
are kept: one :class:`SpecTemplate` per job holds every job-level field
and the settings fingerprint, built once by :meth:`TaskSpec.of_job`, and
each :class:`TaskSpec` is a handle on it holding only what differs per
task (its index and id) plus the two fields read on hot paths. The fleet
keeps one spec per task, so the handle is what scales with it.

Both are slotted by hand (``dataclass(slots=True)`` needs Python 3.10)
and immutable; the template's one writable slot is :attr:`SpecTemplate.lane`,
a cache the data plane fills (:mod:`repro.tasks.runtime`). Specs compare
and hash by identity.
"""

from __future__ import annotations

from dataclasses import FrozenInstanceError
from operator import attrgetter
from typing import Any, Dict, List, Optional

from repro.cluster.resources import ResourceVector
from repro.errors import TurbineError
from repro.jobs.model import JobView
from repro.types import JobId, Priority, TaskId


def task_id_for(job_id: JobId, task_index: int) -> TaskId:
    """Canonical task id: ``"<job_id>:<index>"``."""
    return f"{job_id}:{task_index}"


def _immutable(instance: object, name: str) -> FrozenInstanceError:
    return FrozenInstanceError(
        f"cannot assign to field {name!r}: {type(instance).__name__} is immutable"
    )


def _fingerprinted(index: int, doc: str) -> property:
    """A read-only :class:`SpecTemplate` field kept in its fingerprint."""
    return property(lambda template: template.fingerprint[index], doc=doc)


class SpecTemplate:
    """The job-level half of every task spec of one job, shared by the
    job's :class:`TaskSpec` handles."""

    __slots__ = (
        "job_id", "output_ratio", "stateful", "priority",
        "state_key_cardinality", "memory_overhead_gb", "hot_standby",
        "fingerprint", "lane",
    )

    job_id: JobId
    #: Output bytes per processed input byte.
    output_ratio: float
    stateful: bool
    priority: Priority
    state_key_cardinality: int
    #: Constant per-task memory extra (message-size buffering), GB.
    memory_overhead_gb: float
    #: Opt-in hot-standby replica: the standby plane keeps a passive
    #: copy of each task warm on a different host and promotes it when
    #: the primary's container dies. Deliberately NOT part of
    #: :attr:`fingerprint` — toggling it must not restart the primary;
    #: only the standby plane reacts.
    hot_standby: bool
    #: What :meth:`TaskSpec.settings_fingerprint` returns, built once. The
    #: eight fields it names are kept only here, read through properties.
    fingerprint: tuple
    #: The data plane's resolved view of this job's input, filled on the
    #: first step of one of its tasks; opaque here.
    lane: Optional[Any]

    package_name = _fingerprinted(0, "The job's package.")
    package_version = _fingerprinted(1, "The package's version.")
    threads = _fingerprinted(2, "Threads a task runs.")
    task_count = _fingerprinted(3, "The job's parallelism.")
    resources = _fingerprinted(4, "The per-task reservation.")
    input_category = _fingerprinted(5, "The Scribe category read.")
    output_category = _fingerprinted(6, "The Scribe category written.")
    rate_per_thread_mb = _fingerprinted(
        7,
        "Ground-truth max stable processing rate per thread (MB/s) — used "
        "by the simulated runtime, opaque to the control plane.",
    )

    def __init__(self, job_id: JobId, view: JobView, resources: ResourceVector) -> None:
        # Every hosted task runs at least one thread: a container's
        # hosted-thread sum bounds its running threads from above.
        if view.threads < 1:
            raise TurbineError(
                f"job {job_id} needs at least one thread a task: {view.threads}"
            )
        fields = {
            "job_id": job_id,
            "output_ratio": view.output_ratio,
            "stateful": view.stateful,
            "priority": Priority(view.priority),
            "state_key_cardinality": view.state_key_cardinality,
            "memory_overhead_gb": view.memory_overhead_gb,
            "hot_standby": view.hot_standby,
            "fingerprint": (
                view.package_name,
                view.package_version,
                view.threads,
                view.task_count,
                resources,
                view.input_category,
                view.output_category,
                view.rate_per_thread_mb,
            ),
            "lane": None,
        }
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name: str, value: object) -> None:
        if name != "lane":
            raise _immutable(self, name)
        object.__setattr__(self, name, value)

    def __delattr__(self, name: str) -> None:
        raise _immutable(self, name)

    def __repr__(self) -> str:
        return (
            f"SpecTemplate({self.job_id!r}, {self.package_name}@"
            f"{self.package_version}, tasks={self.task_count}, "
            f"threads={self.threads})"
        )


def _through_template(name: str) -> property:
    """A read-only attribute of :class:`TaskSpec` answered by its template."""
    return property(attrgetter(f"template.{name}"), doc=f"The job's ``{name}``.")


class TaskSpec:
    """Everything a Task Manager needs to run one task: a handle on its
    job's :class:`SpecTemplate`."""

    __slots__ = ("template", "task_index", "task_id", "job_id", "task_count")

    template: SpecTemplate
    task_index: int
    task_id: TaskId
    #: Copies of the template's, read on every hot path.
    job_id: JobId
    task_count: int

    package_name = _through_template("package_name")
    package_version = _through_template("package_version")
    threads = _through_template("threads")
    resources = _through_template("resources")
    input_category = _through_template("input_category")
    output_category = _through_template("output_category")
    output_ratio = _through_template("output_ratio")
    stateful = _through_template("stateful")
    priority = _through_template("priority")
    rate_per_thread_mb = _through_template("rate_per_thread_mb")
    state_key_cardinality = _through_template("state_key_cardinality")
    memory_overhead_gb = _through_template("memory_overhead_gb")
    hot_standby = _through_template("hot_standby")

    def __init__(self, template: SpecTemplate, task_index: int) -> None:
        task_count = template.task_count
        if not 0 <= task_index < task_count:
            raise TurbineError(
                f"task index {task_index} out of range for {task_count} tasks"
            )
        set_slot = object.__setattr__
        set_slot(self, "template", template)
        set_slot(self, "task_index", task_index)
        set_slot(self, "task_id", task_id_for(template.job_id, task_index))
        set_slot(self, "job_id", template.job_id)
        set_slot(self, "task_count", task_count)

    def __setattr__(self, name: str, value: object) -> None:
        raise _immutable(self, name)

    def __delattr__(self, name: str) -> None:
        raise _immutable(self, name)

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
        return cls(SpecTemplate(job_id, view, _resources_of(view)), task_index)

    @classmethod
    def of_job(cls, job_id: JobId, view: JobView) -> List["TaskSpec"]:
        """Every task's spec of one job, from a config already read (one
        parse per job): one template, and one handle per task on it."""
        template = SpecTemplate(job_id, view, _resources_of(view))
        return [cls(template, index) for index in range(view.task_count)]

    def settings_fingerprint(self) -> tuple:
        """A tuple identifying the runtime-relevant settings of this spec.

        When the fingerprint of a task's spec changes, the Task Manager
        must restart the task to pick up the new settings. Every spec of
        one template returns the same tuple object.
        """
        return self.template.fingerprint

    def __repr__(self) -> str:
        return f"TaskSpec({self.task_id!r}, {self.template!r})"


def _resources_of(view: JobView) -> ResourceVector:
    """The per-task reservation a job's config asks for."""
    return ResourceVector.from_dict(dict(view.resources))


#: Sentinel container capacity fraction: "the upper limit of vertical
#: scaling is set to a portion of resources available in a single container
#: (typically 1/5) to keep each task fine-grained enough to move"
#: (paper section V-E).
VERTICAL_LIMIT_FRACTION = 0.2
