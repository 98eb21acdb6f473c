"""Unit tests for the SLI derivation layer (repro.obs.sli)."""

import pytest

from repro.errors import DegradedModeError
from repro.jobs import ConfigLevel, JobService, JobStore, JobView
from repro.metrics.store import MetricStore
from repro.obs.sli import (
    OOM_WINDOW,
    SLI_NAMES,
    SliEvaluator,
)
from repro.types import JobState


class Jobs:
    """The real Job Store + Job Service, with one-line job set-up.

    The evaluator reads the store's typed job views, so a hand-rolled
    fake of "just configs + states" no longer describes what it reads.
    """

    def __init__(self):
        self.store = JobStore()
        self.service = JobService(self.store)

    def add(self, job_id, config=None, state=JobState.RUNNING):
        self.store.create_job(job_id)
        self.service.patch(
            job_id, ConfigLevel.PROVISIONER, config or {"task_count": 4}
        )
        if state != JobState.RUNNING:
            self.store.set_state(job_id, state)


@pytest.fixture
def setup():
    jobs = Jobs()
    metrics = MetricStore()
    return jobs, metrics, SliEvaluator(jobs.service, metrics)


class TestPerJobSlis:
    def test_lag_is_newest_sample_or_none(self, setup):
        service, metrics, sli = setup
        service.add("job")
        assert sli.lag_seconds("job") is None
        metrics.record("job", "time_lagged", 10.0, 30.0)
        metrics.record("job", "time_lagged", 70.0, 45.0)
        assert sli.lag_seconds("job") == 45.0

    def test_freshness_is_age_of_newest_rate_sample(self, setup):
        service, metrics, sli = setup
        service.add("job")
        assert sli.freshness_seconds("job", now=100.0) is None
        metrics.record("job", "processing_rate_mb", 60.0, 2.0)
        assert sli.freshness_seconds("job", now=100.0) == 40.0
        # A clock exactly on the sample reads as perfectly fresh.
        assert sli.freshness_seconds("job", now=60.0) == 0.0

    def test_availability_ratio_and_cap(self, setup):
        service, metrics, sli = setup
        service.add("job", {"task_count": 4})
        assert sli.availability("job") is None  # no stats yet
        metrics.record("job", "running_tasks", 60.0, 3.0)
        assert sli.availability("job") == 0.75
        # More running than expected (scale-down in flight) caps at 1.
        metrics.record("job", "running_tasks", 120.0, 6.0)
        assert sli.availability("job") == 1.0

    def test_availability_none_without_expected_tasks(self, setup):
        service, metrics, sli = setup
        service.add("job", {"task_count": 0})
        metrics.record("job", "running_tasks", 60.0, 2.0)
        assert sli.availability("job") is None

    def test_oom_rate_counts_only_trailing_window(self, setup):
        service, metrics, sli = setup
        service.add("job")
        now = 2000.0
        metrics.record("job", "oom_events", now - OOM_WINDOW - 100.0, 1.0)
        metrics.record("job", "oom_events", now - 100.0, 1.0)
        metrics.record("job", "oom_events", now - 50.0, 1.0)
        assert sli.oom_rate("job", now) == 2.0

    def test_job_sli_dispatches_every_name(self, setup):
        service, metrics, sli = setup
        service.add("job")
        for name in SLI_NAMES:
            sli.job_sli("job", name, now=100.0)  # must not raise
        with pytest.raises(ValueError, match="unknown SLI"):
            sli.job_sli("job", "latency_p99", now=100.0)

    def test_lag_objective_defaults_and_per_job_override(self, setup):
        service, metrics, sli = setup
        service.add("strict", {"task_count": 2,
                               "slo": {"max_lag_seconds": 30.0}})
        service.add("default", {"task_count": 2})
        assert sli.lag_slo_seconds("strict") == 30.0
        # The default's one home: the reader of the config format.
        assert sli.lag_slo_seconds("default") == (
            JobView.from_config({}).slo_lag_seconds
        ) == 90.0


class TestFleetCounts:
    def test_lagging_judged_against_per_job_objective(self, setup):
        service, metrics, sli = setup
        service.add("strict", {"task_count": 2,
                               "slo": {"max_lag_seconds": 30.0}})
        service.add("lenient", {"task_count": 2,
                                "slo": {"max_lag_seconds": 600.0}})
        metrics.record("strict", "time_lagged", 60.0, 100.0)
        metrics.record("lenient", "time_lagged", 60.0, 100.0)
        counts = sli.fleet_counts(now=60.0)
        assert counts.jobs_total == 2
        assert counts.jobs_lagging == 1  # only the strict one
        assert counts.pct_lagging == 0.5

    def test_quarantined_jobs_not_judged_for_lag_or_oom(self, setup):
        service, metrics, sli = setup
        service.add("job", state=JobState.QUARANTINED)
        metrics.record("job", "time_lagged", 60.0, 10_000.0)
        metrics.record("job", "oom_events", 60.0, 1.0)
        counts = sli.fleet_counts(now=60.0)
        assert counts.jobs_quarantined == 1
        assert counts.jobs_lagging == 0
        assert counts.jobs_with_oom == 0
        assert counts.pct_unhealthy == 1.0

    def test_oom_jobs_counted(self, setup):
        service, metrics, sli = setup
        service.add("job")
        metrics.record("job", "oom_events", 60.0, 1.0)
        counts = sli.fleet_counts(now=120.0)
        assert counts.jobs_with_oom == 1

    def test_empty_fleet(self, setup):
        service, metrics, sli = setup
        counts = sli.fleet_counts(now=0.0)
        assert counts.jobs_total == 0
        assert counts.pct_lagging == 0.0
        assert counts.pct_unhealthy == 0.0

    def test_job_store_outage_propagates(self, setup):
        service, metrics, sli = setup
        service.add("job")
        service.store.fail()
        with pytest.raises(DegradedModeError):
            sli.fleet_counts(now=60.0)
