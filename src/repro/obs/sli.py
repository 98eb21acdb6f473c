"""Service-level indicators derived from the platform metric store.

An SLI is a *judged* signal: not "what is the lag" but "is the lag the
kind of number the fleet promised its users". This module derives the
per-job indicators the SLO plane (:mod:`repro.obs.slo`) and the health
reporter (:mod:`repro.ops.health`) consume, and it is the only place
those judgements are computed — the health reporter's fleet percentages
are sums of the per-job verdicts here, never a second inline aggregation.

Every read is a point read (``latest`` / ``latest_time``) or a bounded
``count_between`` off the job's metric row
(:meth:`~repro.metrics.store.MetricStore.row`: one lookup per job, and
no read creates a series), so evaluating the whole fleet once a minute
stays O(jobs), not O(jobs × samples).

The defined per-job SLIs:

* ``lag_seconds`` — the newest ``time_lagged`` sample: how far behind
  real time the job's processing is (paper equation 1);
* ``freshness_seconds`` — age of the newest ``processing_rate_mb``
  sample: how stale the job's *measurements* are. A metric-store outage
  shows up here (gray degradation: the job may be fine, but nobody can
  tell);
* ``availability`` — running tasks / expected tasks, capped at 1.0;
* ``oom_rate`` — OOM events in the trailing
  :data:`OOM_WINDOW` (restart/quarantine pressure).

Evaluating an SLI draws no randomness and schedules no events, so SLI
values are byte-identical across same-seed runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.jobs.model import JobView
from repro.metrics.store import MetricStore
from repro.types import JobId, JobState, Seconds

#: The trailing window in which an OOM event counts against a job —
#: the same 10 minutes the health reporter has always used.
OOM_WINDOW: Seconds = 600.0

#: Trailing window in which a recovery-lag sample judges a job; outside
#: it the SLI reads "no data" again, so one bad recovery last week does
#: not burn budget forever.
RECOVERY_WINDOW: Seconds = 600.0


# ----------------------------------------------------------------------
# Per-job SLIs: one reader per name, each of a job's metric row (``None``
# = no data yet). ``view`` is only read by ``availability``.
# ----------------------------------------------------------------------
def _lag_seconds(row: Mapping, view: Optional[JobView], now: Seconds):
    series = row.get("time_lagged")
    return None if series is None else series.latest()


def _freshness_seconds(row: Mapping, view: Optional[JobView], now: Seconds):
    series = row.get("processing_rate_mb")
    newest = None if series is None else series.latest_time()
    return None if newest is None else max(0.0, now - newest)


def _availability(row: Mapping, view: Optional[JobView], now: Seconds):
    # ``None`` before the first stats round or when no task is expected.
    series = row.get("running_tasks")
    running = None if series is None else series.latest()
    if running is None or view.task_count <= 0:
        return None
    return min(1.0, running / float(view.task_count))


def _oom_rate(row: Mapping, view: Optional[JobView], now: Seconds):
    series = row.get("oom_events")
    if series is None:
        return 0.0
    return float(series.count_between(now - OOM_WINDOW, now))


def _recovery_lag(row: Mapping, view: Optional[JobView], now: Seconds):
    # Newest recovery lag in seconds, recorded by the Task Managers when a
    # failed task posts its first post-recovery progress (an OOM restart
    # finishing its state restore, a promoted standby's first processed
    # byte); only a sample inside RECOVERY_WINDOW judges the job.
    series = row.get("recovery_lag")
    if series is None or not series.count_between(now - RECOVERY_WINDOW, now):
        return None
    return series.latest()


#: ``read(row, view, now)``: one per-job SLI over the job's metric row.
RowReader = Callable[[Mapping, Optional[JobView], Seconds], Optional[float]]

_ROW_SLIS: Dict[str, RowReader] = {
    "lag_seconds": _lag_seconds,
    "freshness_seconds": _freshness_seconds,
    "availability": _availability,
    "oom_rate": _oom_rate,
    "task.recovery_lag": _recovery_lag,
}

#: The per-job SLI names :meth:`SliEvaluator.job_sli` can evaluate.
SLI_NAMES = tuple(_ROW_SLIS)


@dataclass(frozen=True)
class FleetCounts:
    """Fleet-level SLI aggregation (the health report's input)."""

    jobs_total: int = 0
    jobs_lagging: int = 0
    jobs_quarantined: int = 0
    jobs_with_oom: int = 0

    @property
    def pct_lagging(self) -> float:
        return self.jobs_lagging / self.jobs_total if self.jobs_total else 0.0

    @property
    def pct_unhealthy(self) -> float:
        if not self.jobs_total:
            return 0.0
        return (self.jobs_quarantined + self.jobs_with_oom) / self.jobs_total


class SliEvaluator:
    """Derives per-job and fleet SLIs from the live services.

    Holds only references (job service + metric store); every call
    evaluates against the store's current state. A Job Store outage
    propagates as :class:`~repro.errors.DegradedModeError` from the
    config reads — callers (health reporter, SLO tracker) decide whether
    to skip the round or degrade, exactly as they did before this layer
    existed.
    """

    def __init__(self, job_service, metrics: MetricStore) -> None:
        self._service = job_service
        self._metrics = metrics
        #: Evaluation counter (introspection; deterministic).
        self.evaluations = 0

    # ------------------------------------------------------------------
    # Job enumeration and objectives
    # ------------------------------------------------------------------
    def job_ids(self) -> List[JobId]:
        """All managed jobs (sorted; raises while the store is down)."""
        return self._service.job_ids()

    def lag_slo_seconds(self, job_id: JobId) -> float:
        """The job's declared lag objective (or the format's default)."""
        return self._view(job_id).slo_lag_seconds

    def _view(self, job_id: JobId) -> JobView:
        """The job's expected view (the seam the full-read reference overrides)."""
        return self._service.view(job_id)

    def quarantined(self, job_id: JobId) -> bool:
        return self._service.store.state_of(job_id) == JobState.QUARANTINED

    def running(self, job_id: JobId) -> bool:
        return self._service.store.state_of(job_id) == JobState.RUNNING

    # ------------------------------------------------------------------
    # Per-job SLIs
    # ------------------------------------------------------------------
    def readers(self, names: Sequence[str]) -> Tuple[RowReader, ...]:
        """The named SLIs as row readers, resolved once for a caller that
        judges many jobs: ``read(self.row(job_id), view, now)`` is what
        :meth:`job_slis` returns for that name. Such a caller adds
        ``len(names)`` to :attr:`evaluations` per job it reads."""
        try:
            return tuple(_ROW_SLIS[name] for name in names)
        except KeyError as unknown:
            raise ValueError(
                f"unknown SLI {unknown.args[0]!r} (known: {', '.join(SLI_NAMES)})"
            ) from None

    def row(self, job_id: JobId) -> Mapping:
        """The job's metric row, the one argument every reader reads."""
        return self._metrics.row(job_id)

    def job_slis(
        self, job_id: JobId, names: Sequence[str], view: Optional[JobView],
        now: Seconds,
    ) -> List[Optional[float]]:
        """Evaluate the named SLIs for one job from one row lookup."""
        readers = self.readers(names)
        row = self._metrics.row(job_id)
        self.evaluations += len(names)
        return [read(row, view, now) for read in readers]

    def job_sli(self, job_id: JobId, name: str, now: Seconds) -> Optional[float]:
        """Evaluate one named SLI for one job (``None`` = no data yet)."""
        view = self._view(job_id) if name == "availability" else None
        return self.job_slis(job_id, (name,), view, now)[0]

    def lag_seconds(self, job_id: JobId) -> Optional[float]:
        """Newest ``time_lagged`` sample, or ``None`` before first stats."""
        return _lag_seconds(self._metrics.row(job_id), None, 0.0)

    def freshness_seconds(self, job_id: JobId, now: Seconds) -> Optional[float]:
        """Age of the newest processing-rate sample (measurement staleness)."""
        return _freshness_seconds(self._metrics.row(job_id), None, now)

    def availability(self, job_id: JobId) -> Optional[float]:
        """Running tasks over expected tasks, in ``[0, 1]``."""
        return _availability(self._metrics.row(job_id), self._view(job_id), 0.0)

    def oom_rate(self, job_id: JobId, now: Seconds) -> float:
        """OOM events in the trailing :data:`OOM_WINDOW` (count)."""
        return _oom_rate(self._metrics.row(job_id), None, now)

    # ------------------------------------------------------------------
    # Fleet aggregation (the health reporter's percentages)
    # ------------------------------------------------------------------
    def fleet_counts(self, now: Seconds) -> FleetCounts:
        """Count lagging / quarantined / OOMing jobs across the fleet.

        Semantics mirror the original health-report loop exactly: a job
        counts as lagging when its newest lag sample exceeds its own
        declared objective, and only RUNNING jobs are judged for lag and
        OOM (a quarantined job is already counted as quarantined).
        """
        job_ids = self.job_ids()
        lagging = quarantined = with_oom = 0
        for job_id in job_ids:
            if self.quarantined(job_id):
                quarantined += 1
            if not self.running(job_id):
                continue
            lag = self.lag_seconds(job_id) or 0.0
            if lag > self.lag_slo_seconds(job_id):
                lagging += 1
            if self.oom_rate(job_id, now) > 0:
                with_oom += 1
        return FleetCounts(
            jobs_total=len(job_ids),
            jobs_lagging=lagging,
            jobs_quarantined=quarantined,
            jobs_with_oom=with_oom,
        )

    def __repr__(self) -> str:
        return f"SliEvaluator(evaluations={self.evaluations})"
