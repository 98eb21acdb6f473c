"""Full-walk reference forms of the indexed / change-driven planes.

Production code answers "where does this task run", "which managers host
this job", "which (job, SLO) pairs can be burning", "which jobs need a
sync plan" and "what is this window's mean" from state kept where the
fact changes. The forms here answer the same questions the slow,
obviously-right way — scan every manager, re-merge every config, rescan
every job, reread every sample — and exist only so the equivalence suites
in ``tests/`` and the hot-path benches have something to compare against.
Production classes take no argument that selects one of these; nothing
under ``repro`` outside this package may import them.
"""

from __future__ import annotations

from typing import List

from repro.jobs.model import JobView
from repro.jobs.syncer import StateSyncer, SyncReport
from repro.metrics.series import TimeSeries
from repro.metrics.store import MetricStore
from repro.obs.sli import SliEvaluator
from repro.obs.slo import SloTracker
from repro.types import JobId, Seconds, TaskId

__all__ = [
    "scan_primary_manager",
    "scan_hosting_managers",
    "FullReadSliEvaluator",
    "FullWalkSloTracker",
    "FullScanSyncer",
    "NaiveTimeSeries",
    "NaiveMetricStore",
]


def scan_primary_manager(platform, task_id: TaskId):
    """The lowest-id live manager running ``task_id``, by fleet scan."""
    managers = platform.task_managers
    for container_id in sorted(managers):
        manager = managers[container_id]
        if manager.alive and task_id in manager.tasks:
            return manager
    return None


def scan_hosting_managers(shard_manager, job_id: JobId) -> List:
    """Every live manager holding a task or replica of ``job_id``, found
    by asking all of ``live_managers()`` — the managers on which
    ``stop_job_tasks(job_id)`` is not a no-op."""
    return [
        manager
        for manager in shard_manager.live_managers()
        if any(
            task.spec.job_id == job_id
            for task in list(manager.tasks.values())
            + list(manager.standbys.values())
        )
    ]


class FullReadSliEvaluator(SliEvaluator):
    """Runs the four-level config merge on every objective read."""

    def _view(self, job_id: JobId) -> JobView:
        return JobView.from_config(self._service.expected_config(job_id))


class FullWalkSloTracker(SloTracker):
    """Reads every rule window of every (job, SLO) series every round —
    a forgotten job's not until it is next judged bad, as in production."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._forgotten: set = set()

    def forget_job(self, job_id: JobId) -> None:
        super().forget_job(job_id)
        self._forgotten.update((job_id, spec.name) for spec in self.specs)

    def _track_breach(self, job_id, spec, bad, now) -> None:
        if bad:
            self._forgotten.discard((job_id, spec.name))
        super()._track_breach(job_id, spec, bad, now)

    def _check_burn_rates(self, now: Seconds) -> None:
        for entity in self._known_entities():
            for spec in self.specs:
                series = self._store._series.get(
                    (entity, f"slo_bad.{spec.name}")
                )
                if series is not None and (entity, spec.name) not in self._forgotten:
                    self._evaluate_rules(entity, spec, series, now)


class FullScanSyncer(StateSyncer):
    """Rescans the whole fleet every round, whatever the change feed says."""

    def sync_once(self) -> SyncReport:
        self._rounds_since_full = self._full_scan_interval
        return super().sync_once()


class NaiveTimeSeries(TimeSeries):
    """Serves every read by rescanning the retained samples: no rolling
    window state, no rollup tier."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._rollup = None

    def _window_agg(self, duration: Seconds, now: Seconds) -> None:
        return None


class NaiveMetricStore(MetricStore):
    """A store whose series are all :class:`NaiveTimeSeries`."""

    series_type = NaiveTimeSeries
