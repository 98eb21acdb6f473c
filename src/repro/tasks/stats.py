"""Job-level statistics collection.

Computes, per job, the metrics the Auto Scaler's symptom detectors consume
(paper section V-A). These six metrics are exactly what the collector
writes, as one row a minute per job with specs (one time slot, one value
per metric column). Each keeps the longest window any reader opens on it
(:data:`RETENTION`):

* ``input_rate_mb`` — MB/s arriving in the job's input category; 15 days,
  the pattern analyzer's 14 days (section V-C) and a day to spare;
* ``processing_rate_mb`` — MB/s the job's tasks actually processed; 900 s,
  this collector's own zero-rate fallback window;
* ``time_lagged`` — equation (1): ``total_bytes_lagged / processing_rate``;
  the store's 2-day default, over the scaler's 1-day quiet window;
* ``bytes_lagged_mb`` — bytes available but not yet ingested;
* ``running_tasks`` — live task count (the availability SLI);
* ``task_rate_stdev`` — imbalance measure, "the standard deviation of
  processing rate across all the tasks belonging to the same job"
  (only while a task runs).

The last three keep one collection interval: ``snapshot_job`` and the
availability SLI read only their newest sample. The first three are rates
over the interval since the collector's previous round, so its first
round's row holds only the last three. No per-job memory or CPU aggregate
is written: nothing reads one (the OOM check reads each task's own memory
in ``step_container``).
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

from repro.metrics.store import DEFAULT_RETENTION, MetricStore
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine, Timer
from repro.tasks.runtime import RunningTask
from repro.tasks.service import TaskService
from repro.tasks.shard_manager import ShardManager
from repro.types import JobId, Seconds, TaskState

#: Collection period: once a minute, like the paper's per-minute workload
#: metrics (section V-C).
COLLECT_INTERVAL: Seconds = 60.0

#: time_lagged stand-in when the job has backlog but zero throughput.
INFINITE_LAG: float = 1e9

#: ``input_rate_mb`` retention: the pattern analyzer's 14 days of
#: per-minute input rates (paper section V-C) and a day to spare.
INPUT_RATE_RETENTION: Seconds = 15 * 86400.0

#: When a job processed nothing since the previous round, equation (1)'s
#: denominator is its mean processing rate over this trailing window.
FALLBACK_RATE_WINDOW: Seconds = 900.0

#: Each collected metric's retention, in row order: the longest window
#: any reader opens on it. A metric read only as its newest sample keeps
#: one collection interval.
RETENTION: Dict[str, Seconds] = {
    "input_rate_mb": INPUT_RATE_RETENTION,  # the pattern analyzer
    "processing_rate_mb": FALLBACK_RATE_WINDOW,  # this collector
    "time_lagged": DEFAULT_RETENTION,  # the scalers' 1-day quiet window
    "bytes_lagged_mb": COLLECT_INTERVAL,  # snapshot_job
    "running_tasks": COLLECT_INTERVAL,  # snapshot_job, availability SLI
    "task_rate_stdev": COLLECT_INTERVAL,  # snapshot_job
}

#: The metrics of every row the collector writes, in row order; a row
#: holds ``None`` for a metric absent from its round.
ROW_METRICS = tuple(RETENTION)


class JobStatsCollector:
    """Periodically derives job-level metrics from the data plane."""

    def __init__(
        self,
        engine: Engine,
        task_service: TaskService,
        shard_manager: ShardManager,
        scribe: ScribeBus,
        metrics: MetricStore,
        interval: Seconds = COLLECT_INTERVAL,
    ) -> None:
        self._engine = engine
        self._service = task_service
        self._shard_manager = shard_manager
        self._scribe = scribe
        self._metrics = metrics
        for metric, retention in RETENTION.items():
            metrics.retain(metric, retention)
        self._interval = interval
        #: ``job -> (category head, MB processed)`` at the last round.
        self._last: Dict[JobId, Tuple[float, float]] = {}
        self._last_time: Optional[Seconds] = None
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        """Arm the periodic collection timer."""
        if self._timer is None:
            self._timer = self._engine.every(
                self._interval, self.collect_once, name="job-stats"
            )

    def forget_job(self, job_id: JobId) -> None:
        """Drop a deleted job's delta stamp and metric entity. Not for a job
        merely spec-less for a round: its delta across that gap is real."""
        self._last.pop(job_id, None)
        self._metrics.drop_entity(job_id)

    def held_jobs(self) -> Iterable[JobId]:
        return self._last.keys()

    # ------------------------------------------------------------------
    # One collection round
    # ------------------------------------------------------------------
    def collect_once(self) -> None:
        """Compute and record one metric row for every job with specs.

        A zero processing rate is recorded first, on its own, because the
        job's lag computation reads it back; the row then shares its time
        slot.
        """
        now = self._engine.now
        dt = now - self._last_time if self._last_time is not None else None
        tasks_by_job = self._tasks_by_job()

        for job_id in self._service.job_ids():
            specs = self._service.specs_of(job_id)
            if not specs:
                continue
            category_name = specs[0].input_category
            tasks = tasks_by_job.get(job_id, [])
            self._collect_job(job_id, category_name, tasks, now, dt)
        self._last_time = now

    def _collect_job(
        self,
        job_id: JobId,
        category_name: str,
        tasks: List[RunningTask],
        now: Seconds,
        dt: Optional[Seconds],
    ) -> None:
        head = 0.0
        lagged = 0.0
        if category_name:
            head, lagged = self._scribe.head_and_backlog_mb(job_id, category_name)
        # One pass over the tasks: every task's processed total, and the
        # running ones' rates folded into their standard deviation exactly
        # as ``aggregate.stdev`` folds a list of them (Welford, in task
        # order). The sum adds in task order from 0, as ``sum_in_order``
        # does (DESIGN.md, "Float order").
        processed_total = 0
        running = 0
        rate_mean = 0.0
        rate_m2 = 0.0
        for task in tasks:
            processed_total += task.total_processed_mb
            if task.state == TaskState.RUNNING:
                running += 1
                rate = task.last_rate_mb
                delta = rate - rate_mean
                rate_mean += delta / running
                rate_m2 += delta * (rate - rate_mean)

        input_rate = processing_rate = time_lagged = None
        if dt is not None and dt > 0:
            last_head, last_processed = self._last.get(job_id, (head, processed_total))
            input_rate = max(0.0, (head - last_head) / dt)
            # Equation (1)'s denominator is what the job *can* process per
            # second. The instantaneous rate dips to zero during routine
            # restarts (package pushes, parallelism changes); using the
            # recent processing capability avoids phantom infinite lag.
            rate_basis = max(0.0, (processed_total - last_processed) / dt)
            if rate_basis > 1e-9:
                processing_rate = rate_basis
            else:
                # The fallback average includes the current sample, so it
                # lands now rather than with the row.
                self._metrics.record(job_id, "processing_rate_mb", now, rate_basis)
                recent = self._metrics.row(job_id).get("processing_rate_mb")
                if recent is not None:  # None: never landed (store down)
                    rate_basis = recent.average_over(FALLBACK_RATE_WINDOW, now) or 0.0
            if lagged <= 1e-9:
                time_lagged = 0.0
            elif rate_basis > 1e-9:
                time_lagged = lagged / rate_basis
            else:
                time_lagged = INFINITE_LAG
        self._last[job_id] = (head, processed_total)

        if running == 0:
            rate_stdev = None  # only while a task runs
        elif running == 1:
            rate_stdev = 0.0
        else:
            rate_stdev = math.sqrt(max(0.0, rate_m2) / running)
        self._metrics.record_row(
            job_id, now, ROW_METRICS,
            (input_rate, processing_rate, time_lagged, lagged, float(running),
             rate_stdev),
        )

    def _tasks_by_job(self) -> Dict[JobId, List[RunningTask]]:
        grouped: Dict[JobId, List[RunningTask]] = {}
        for manager in self._shard_manager.live_managers():
            for task in manager.tasks.values():
                grouped.setdefault(task.spec.job_id, []).append(task)
            # Hosted replicas: passive ones are filtered out by every
            # RUNNING-state check downstream, while a promoted standby
            # keeps processing_rate/running_tasks (and therefore the
            # availability SLI) truthful during the takeover window.
            for task in manager.standbys.values():
                grouped.setdefault(task.spec.job_id, []).append(task)
        return grouped
