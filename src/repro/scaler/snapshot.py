"""Per-job metric snapshots — the scaler's view of one job.

Gathering every number the detectors, estimators, and pattern analyzer need
into a single immutable snapshot keeps the decision pipeline pure: each
stage is a function of the snapshot, which makes the scaler deterministic
and unit-testable without a live cluster.
"""

from __future__ import annotations

from typing import NamedTuple

from repro.jobs.model import JobView
from repro.metrics.store import MetricStore
from repro.types import JobId, Priority, Seconds

#: Trailing window over which the input rate is averaged (the paper reads
#: "the average input rate in the last 30 minutes" for outlier checks and
#: ~10-minute usage averages for load).
RATE_WINDOW: Seconds = 600.0

#: Trailing window in which an OOM event makes a job "OOM recently".
OOM_WINDOW: Seconds = 600.0


class JobSnapshot(NamedTuple):
    """Everything the scaler pipeline knows about one job at one instant.

    A named tuple: immutable like a frozen dataclass, at about a quarter of
    its construction cost — the scaler builds one per job per round.
    """

    job_id: JobId
    time: Seconds
    #: Control-plane view (merged expected config).
    task_count: int
    threads: int
    task_count_limit: int
    memory_per_task_gb: float
    cpu_per_task: float
    stateful: bool
    state_key_cardinality: int
    priority: Priority
    slo_lag_seconds: float
    slo_recovery_seconds: float
    #: Data-plane view (from the metric store).
    input_rate_mb: float
    processing_rate_mb: float
    backlog_mb: float
    time_lagged: float
    task_rate_stdev: float
    oom_recently: bool
    running_tasks: int
    #: Partitions of the input category; parallelism beyond this adds
    #: idle tasks (each partition has exactly one reader). 0 = unknown.
    input_partitions: int = 0

    @property
    def lagging(self) -> bool:
        """Equation-1 lag above the job's SLO threshold."""
        return self.time_lagged > self.slo_lag_seconds

    @property
    def per_task_rate(self) -> float:
        """Observed average processing rate per running task (MB/s)."""
        if self.running_tasks <= 0:
            return 0.0
        return self.processing_rate_mb / self.running_tasks


def snapshot_job(
    job_id: JobId,
    view: JobView,
    metrics: MetricStore,
    now: Seconds,
    input_partitions: int = 0,
) -> JobSnapshot:
    """Build a snapshot from the job's expected view and its metric row."""
    row = metrics.row(job_id)

    def latest(metric: str) -> float:
        series = row.get(metric)
        value = None if series is None else series.latest()
        return 0.0 if value is None else value

    input_rate = None
    if "input_rate_mb" in row:
        input_rate = row["input_rate_mb"].average_over(RATE_WINDOW, now)
    if input_rate is None:
        input_rate = latest("input_rate_mb")

    oom_series = row.get("oom_events")
    oom_recently = bool(oom_series and oom_series.values_in(now - OOM_WINDOW, now))

    return JobSnapshot(
        job_id=job_id,
        time=now,
        task_count=view.task_count,
        threads=view.threads,
        task_count_limit=view.task_count_limit,
        memory_per_task_gb=view.memory_per_task_gb,
        cpu_per_task=view.cpu_per_task,
        stateful=view.stateful,
        state_key_cardinality=view.state_key_cardinality,
        priority=Priority(view.priority),
        slo_lag_seconds=view.slo_lag_seconds,
        slo_recovery_seconds=view.slo_recovery_seconds,
        input_rate_mb=float(input_rate),
        processing_rate_mb=latest("processing_rate_mb"),
        backlog_mb=latest("bytes_lagged_mb"),
        time_lagged=latest("time_lagged"),
        task_rate_stdev=latest("task_rate_stdev"),
        oom_recently=oom_recently,
        running_tasks=int(latest("running_tasks")),
        input_partitions=input_partitions,
    )
