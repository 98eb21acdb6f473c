"""Cluster health reporting and alerting.

The reporter computes the paper's three headline health percentages —
tasks not running, jobs lagging, jobs unhealthy (quarantined or OOMing) —
plus capacity utilization, and raises alerts when thresholds are crossed.
Each alert carries a runbook hint, mirroring the paper's "comprehensive
runbook, dashboards, and tools that drill down into the root cause".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.obs.bounded import BoundedList
from repro.obs.sli import SliEvaluator

from repro.analysis.report import Table
from repro.errors import DegradedModeError
from repro.jobs.service import JobService
from repro.metrics.store import MetricStore
from repro.sim.engine import Engine, Timer
from repro.tasks.service import TaskService
from repro.tasks.shard_manager import ShardManager
from repro.types import Seconds

#: How often the reporter snapshots the platform's health.
REPORT_INTERVAL: Seconds = 300.0

#: Retained reports/alerts. At the default 5-minute cadence this is a
#: month of history — plenty for timelines, bounded for endless soaks.
REPORT_RETENTION = 8_640

#: Alerting thresholds: the share of expected tasks not running, the
#: share of jobs lagging, and the count of quarantined jobs at which the
#: reporter warns or pages.
TASKS_NOT_RUNNING_WARN = 0.01
TASKS_NOT_RUNNING_PAGE = 0.10
JOBS_LAGGING_WARN = 0.02
JOBS_LAGGING_PAGE = 0.20
QUARANTINED_PAGE = 1


@dataclass
class Alert:
    """One operator alert with a runbook hint."""

    time: Seconds
    severity: str  # "warn" | "page"
    what: str
    runbook: str


@dataclass
class HealthReport:
    """A point-in-time snapshot of cluster health."""

    time: Seconds
    jobs_total: int = 0
    jobs_lagging: int = 0
    jobs_quarantined: int = 0
    jobs_with_oom: int = 0
    tasks_expected: int = 0
    tasks_running: int = 0
    containers_live: int = 0
    failovers_last_hour: int = 0

    @property
    def pct_tasks_not_running(self) -> float:
        if self.tasks_expected == 0:
            return 0.0
        missing = max(0, self.tasks_expected - self.tasks_running)
        return missing / self.tasks_expected

    @property
    def pct_jobs_lagging(self) -> float:
        return self.jobs_lagging / self.jobs_total if self.jobs_total else 0.0

    @property
    def pct_jobs_unhealthy(self) -> float:
        if not self.jobs_total:
            return 0.0
        return (self.jobs_quarantined + self.jobs_with_oom) / self.jobs_total

    def render(self) -> str:
        table = Table(["health metric", "value"])
        table.add_row("jobs managed", self.jobs_total)
        table.add_row("tasks expected / running",
                      f"{self.tasks_expected} / {self.tasks_running}")
        table.add_row("tasks not running", f"{self.pct_tasks_not_running:.1%}")
        table.add_row("jobs lagging", f"{self.pct_jobs_lagging:.1%}")
        table.add_row("jobs unhealthy", f"{self.pct_jobs_unhealthy:.1%}")
        table.add_row("quarantined jobs", self.jobs_quarantined)
        table.add_row("live containers", self.containers_live)
        table.add_row("failovers (last hour)", self.failovers_last_hour)
        return table.render()


class HealthReporter:
    """Computes health reports and raises threshold alerts."""

    def __init__(
        self,
        engine: Engine,
        job_service: JobService,
        task_service: TaskService,
        shard_manager: ShardManager,
        metrics: MetricStore,
        interval: Seconds = REPORT_INTERVAL,
        sli: Optional[SliEvaluator] = None,
    ) -> None:
        self._engine = engine
        self._service = job_service
        self._task_service = task_service
        self._shard_manager = shard_manager
        self._metrics = metrics
        #: The SLI layer is the single source of the per-job judgements;
        #: the reporter only adds the task/container side and thresholds.
        self.sli = sli if sli is not None else SliEvaluator(job_service, metrics)
        self._interval = interval
        self.reports: List[HealthReport] = BoundedList(maxlen=REPORT_RETENTION)
        self.alerts: List[Alert] = BoundedList(maxlen=REPORT_RETENTION)
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        if self._timer is None:
            self._timer = self._engine.every(
                self._interval, self.check_once, name="health-reporter"
            )

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def report(self) -> HealthReport:
        """Build a health snapshot from the live services.

        The job-side percentages (lagging, quarantined, OOMing) come from
        the SLI layer's fleet aggregation — the same judgements the SLO
        tracker burns budgets against — so a dashboard and an SLO can
        never disagree about what "lagging" means.
        """
        now = self._engine.now
        report = HealthReport(time=now)

        counts = self.sli.fleet_counts(now)
        report.jobs_total = counts.jobs_total
        report.jobs_lagging = counts.jobs_lagging
        report.jobs_quarantined = counts.jobs_quarantined
        report.jobs_with_oom = counts.jobs_with_oom

        report.tasks_expected = self._tasks_expected()
        managers = self._shard_manager.live_managers()
        report.containers_live = len(managers)
        # A promoted standby is the running incarnation of its task.
        report.tasks_running = sum(
            len(manager.running_task_ids()) for manager in managers
        )
        report.failovers_last_hour = sum(
            1
            for event in self._shard_manager.failover_events
            if now - event.time <= 3600.0
        )
        return report

    def _tasks_expected(self) -> int:
        try:
            index = self._task_service.shard_index()
        except DegradedModeError:
            return 0
        return sum(len(tasks) for tasks in index.values())

    def check_once(self) -> HealthReport:
        """Build a report, record it, and raise any threshold alerts.

        When the Job Store is unavailable the reporter cannot see the
        fleet; it records an empty report and raises a degraded-visibility
        alert instead of crashing the periodic timer mid-outage.
        """
        try:
            report = self.report()
        except DegradedModeError:
            report = HealthReport(time=self._engine.now)
            self._alert(
                "warn", "health visibility degraded: Job Store unavailable",
                "check Job Store availability; reporting resumes on recovery",
            )
        self.reports.append(report)
        self._raise_alerts(report)
        return report

    # ------------------------------------------------------------------
    # Alerting
    # ------------------------------------------------------------------
    def _raise_alerts(self, report: HealthReport) -> None:
        if report.pct_tasks_not_running >= TASKS_NOT_RUNNING_PAGE:
            self._alert("page",
                        f"{report.pct_tasks_not_running:.0%} of tasks not running",
                        "check Shard Manager failovers and host availability")
        elif report.pct_tasks_not_running >= TASKS_NOT_RUNNING_WARN:
            self._alert("warn",
                        f"{report.pct_tasks_not_running:.1%} of tasks not running",
                        "verify recent syncs and container churn")
        if report.pct_jobs_lagging >= JOBS_LAGGING_PAGE:
            self._alert("page",
                        f"{report.pct_jobs_lagging:.0%} of jobs lagging",
                        "suspect a shared dependency; do not mass-scale")
        elif report.pct_jobs_lagging >= JOBS_LAGGING_WARN:
            self._alert("warn",
                        f"{report.pct_jobs_lagging:.1%} of jobs lagging",
                        "check Auto Scaler actions and untriaged reports")
        if report.jobs_quarantined >= QUARANTINED_PAGE:
            self._alert("page",
                        f"{report.jobs_quarantined} job(s) quarantined",
                        "inspect State Syncer alerts; release after fixing")

    def _alert(self, severity: str, what: str, runbook: str) -> None:
        self.alerts.append(Alert(self._engine.now, severity, what, runbook))
