"""Execution plans: the idempotent action sequences the State Syncer runs.

"An Execution Plan is an optimal sequence of idempotent actions whose goal
is to transition the running job configuration to the expected job
configuration." (paper section III-B).

Actions act on a :class:`TaskActuator` — the narrow interface the Task
Management layer exposes to the syncer. Keeping the interface abstract
decouples *what to run* from *where to run* exactly as the paper's
architecture does, and lets tests drive plans against fakes (including
fault-injecting ones).
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List

from repro.jobs.configs import Config
from repro.jobs.model import JobView
from repro.types import JobId


class TaskActuator(abc.ABC):
    """What the syncer can do to the cluster.

    Implementations must make every method idempotent: a plan that failed
    half-way is re-run from the start on the next synchronization round.
    """

    @abc.abstractmethod
    def apply_settings(self, job_id: JobId, config: Config) -> None:
        """Push non-structural settings (package version, resources, ...).

        This is the "simple synchronization" path: the new settings
        propagate to tasks via the Task Service snapshot refresh.
        """

    @abc.abstractmethod
    def stop_tasks(self, job_id: JobId) -> None:
        """Stop all tasks of the job and wait for them to be fully stopped."""

    @abc.abstractmethod
    def redistribute_checkpoints(
        self, job_id: JobId, old_task_count: int, new_task_count: int
    ) -> None:
        """Re-map partition checkpoints from the old to the new task layout."""

    @abc.abstractmethod
    def start_tasks(self, job_id: JobId, task_count: int, config: Config) -> None:
        """Start ``task_count`` tasks with the given configuration."""

    def known_job_ids(self) -> Iterable[JobId]:
        """Every job anything is still kept for on this side; the syncer
        forgets those the Job Store lacks. By default nothing is kept."""
        return []

    def forget_job(self, job_id: JobId) -> None:
        """Reclaim everything kept for a job deleted from the Job Store."""
        self.stop_tasks(job_id)


@dataclass
class Action:
    """One idempotent step of an execution plan."""

    name: str
    run: Any = field(repr=False)  # Callable[[TaskActuator], None]

    def execute(self, actuator: TaskActuator) -> None:
        self.run(actuator)


@dataclass
class ExecutionPlan:
    """An ordered list of actions that realizes a config transition.

    ``target_config`` is what gets committed to the running table after —
    and only after — every action succeeds.
    """

    job_id: JobId
    target_config: Config
    actions: List[Action] = field(default_factory=list)
    #: Whether this plan needs multi-phase coordination (parallelism change)
    #: or is a batched single-copy (package release etc.).
    complex: bool = False

    def execute(self, actuator: TaskActuator) -> None:
        """Run every action in order; raises on the first failure."""
        for action in self.actions:
            action.execute(actuator)


def build_plan(
    job_id: JobId,
    running: Config,
    expected: Config,
    diff: Dict[str, Any],
) -> ExecutionPlan:
    """Construct the plan that moves ``running`` to ``expected``.

    * No difference → empty plan.
    * Difference only in simple keys → one ``apply_settings`` action
      ("Package release falls into this category: once the corresponding
      package setting is copied ... the setting will eventually propagate
      to the impacted tasks").
    * Parallelism change → the paper's three-phase complex sync: stop the
      old tasks, redistribute checkpoints, start the new tasks.
    """
    from repro.jobs.configs import requires_complex_sync

    plan = ExecutionPlan(job_id=job_id, target_config=dict(expected))
    if not diff:
        return plan

    if requires_complex_sync(diff):
        old_count = int(running.get("task_count", 0) or 0)
        new_count = JobView.from_config(expected).task_count
        plan.complex = True
        plan.actions = [
            Action(
                "stop_old_tasks",
                lambda actuator: actuator.stop_tasks(job_id),
            ),
            Action(
                "redistribute_checkpoints",
                lambda actuator: actuator.redistribute_checkpoints(
                    job_id, old_count, new_count
                ),
            ),
            Action(
                "start_new_tasks",
                lambda actuator: actuator.start_tasks(
                    job_id, new_count, dict(expected)
                ),
            ),
        ]
    else:
        plan.actions = [
            Action(
                "apply_settings",
                lambda actuator: actuator.apply_settings(job_id, dict(expected)),
            )
        ]
    return plan
