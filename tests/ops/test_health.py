"""Tests for the health reporter and alerting (paper section VII)."""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.ops import HealthReporter
import repro.ops.health
from repro.workloads import TrafficDriver


def healthy_platform(num_jobs=3, seed=23):
    platform = Turbine.create(
        num_hosts=3, seed=seed,
        config=PlatformConfig(num_shards=32, containers_per_host=2),
    )
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for index in range(num_jobs):
        platform.provision(
            JobSpec(job_id=f"job-{index}", input_category=f"cat-{index}",
                    task_count=4, rate_per_thread_mb=4.0),
        )
        driver.add_source(f"cat-{index}", lambda t: 4.0)
    driver.start()
    reporter = HealthReporter(
        platform.engine, platform.job_service, platform.task_service,
        platform.shard_manager, platform.metrics,
    )
    platform.run_for(minutes=5)
    return platform, reporter


class TestReport:
    def test_healthy_cluster_reports_clean(self):
        platform, reporter = healthy_platform()
        report = reporter.check_once()
        assert report.jobs_total == 3
        assert report.tasks_expected == 12
        assert report.tasks_running == 12
        assert report.pct_tasks_not_running == 0.0
        assert report.pct_jobs_lagging == 0.0
        assert reporter.alerts == []

    def test_render_contains_headline_metrics(self):
        platform, reporter = healthy_platform()
        text = reporter.check_once().render()
        assert "tasks not running" in text
        assert "jobs lagging" in text
        assert "failovers" in text

    def test_missing_tasks_detected(self):
        platform, reporter = healthy_platform()
        # Kill a host and look before failover restores the tasks.
        platform.cluster.fail_host("host-0")
        platform.run_for(seconds=30.0)
        report = reporter.check_once()
        assert report.pct_tasks_not_running > 0.0

    def test_failovers_counted(self):
        platform, reporter = healthy_platform()
        platform.cluster.fail_host("host-0")
        platform.run_for(minutes=3)
        report = reporter.check_once()
        assert report.failovers_last_hour >= 1

    def test_lagging_jobs_counted(self):
        platform, reporter = healthy_platform()
        platform.scribe.get_category("cat-0").append(100000.0)
        platform.run_for(minutes=3)
        report = reporter.check_once()
        assert report.jobs_lagging >= 1

    def test_degraded_task_service_tolerated(self):
        platform, reporter = healthy_platform()
        platform.task_service.available = False
        report = reporter.check_once()
        assert report.tasks_expected == 0  # unknown, not a crash

    def test_task_service_bug_propagates(self, monkeypatch):
        """Only an outage reads as "no tasks expected": a programming
        error in ``shard_index`` must surface, not report 0 % missing and
        silence the mass-task-loss page."""
        platform, reporter = healthy_platform()

        def broken():
            raise RuntimeError("bug in shard_index")

        monkeypatch.setattr(platform.task_service, "shard_index", broken)
        with pytest.raises(RuntimeError, match="bug in shard_index"):
            reporter.check_once()


class TestAlerts:
    def test_page_on_mass_task_loss(self):
        platform, reporter = healthy_platform()
        for manager in list(platform.task_managers.values()):
            manager.container.kill()
        platform.run_for(seconds=10.0)
        reporter.check_once()
        pages = [a for a in reporter.alerts if a.severity == "page"]
        assert pages
        assert any("not running" in a.what for a in pages)
        assert all(a.runbook for a in pages)

    def test_warn_threshold_below_page(self, monkeypatch):
        platform, reporter = healthy_platform(num_jobs=8)
        monkeypatch.setattr(repro.ops.health, "TASKS_NOT_RUNNING_PAGE", 0.9)
        # Stop one task of 32: ~3% missing → warn, not page.
        manager = next(
            m for m in platform.task_managers.values() if m.tasks
        )
        task_id = next(iter(manager.tasks))
        manager._unhost(manager.tasks[task_id])
        reporter.check_once()
        severities = {a.severity for a in reporter.alerts}
        assert severities == {"warn"}

    def test_quarantine_pages(self):
        platform, reporter = healthy_platform()
        from repro.types import JobState

        platform.job_store.set_state("job-0", JobState.QUARANTINED)
        reporter.check_once()
        assert any("quarantined" in a.what for a in reporter.alerts)

    def test_periodic_reporting(self):
        platform, reporter = healthy_platform()
        reporter.start()
        platform.run_for(minutes=16)
        assert len(reporter.reports) == 3


class TestSliSourcing:
    """The job-side percentages come from the SLI layer, not an inline loop."""

    def test_report_matches_fleet_counts(self):
        platform, reporter = healthy_platform()
        platform.scribe.get_category("cat-0").append(100000.0)
        platform.run_for(minutes=3)
        report = reporter.report()
        counts = reporter.sli.fleet_counts(platform.now)
        assert report.jobs_total == counts.jobs_total
        assert report.jobs_lagging == counts.jobs_lagging
        assert report.jobs_quarantined == counts.jobs_quarantined
        assert report.jobs_with_oom == counts.jobs_with_oom
        assert report.pct_jobs_lagging == counts.jobs_lagging / counts.jobs_total

    def test_injected_evaluator_is_used(self):
        from repro.obs.sli import SliEvaluator

        platform, _ = healthy_platform()
        shared = SliEvaluator(platform.job_service, platform.metrics)
        reporter = HealthReporter(
            platform.engine, platform.job_service, platform.task_service,
            platform.shard_manager, platform.metrics, sli=shared,
        )
        assert reporter.sli is shared
        evals = shared.evaluations
        reporter.report()
        # fleet_counts goes through the shared evaluator's judgements.
        assert shared.evaluations >= evals

    def test_degraded_job_store_still_degrades_gracefully(self):
        platform, reporter = healthy_platform()
        platform.job_store.available = False
        report = reporter.check_once()
        assert report.jobs_total == 0  # empty degraded report, no crash
        assert any("degraded" in a.what for a in reporter.alerts)
