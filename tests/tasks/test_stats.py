"""Unit tests for the JobStatsCollector (equation 1 and friends)."""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.metrics import MetricStore
from repro.metrics.aggregate import stdev
from repro.tasks.stats import INFINITE_LAG, RETENTION, JobStatsCollector
from repro.types import TaskState


def collector_platform(step_interval=10.0, stats_interval=60.0):
    platform = Turbine.create(
        num_hosts=2, seed=47,
        config=PlatformConfig(num_shards=8, containers_per_host=2,
                              step_interval=step_interval,
                              stats_interval=stats_interval),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=2,
                rate_per_thread_mb=4.0),
        partitions=8,
    )
    platform.run_for(minutes=3)
    return platform


def test_input_rate_from_head_deltas():
    platform = collector_platform()
    for __ in range(5):
        platform.scribe.get_category("cat").append(3.0 * 60.0)
        platform.run_for(minutes=1)
    assert platform.metrics.latest("job", "input_rate_mb") == pytest.approx(
        3.0, rel=0.1
    )


def test_processing_rate_tracks_input_at_steady_state():
    platform = collector_platform()
    for __ in range(6):
        platform.scribe.get_category("cat").append(3.0 * 60.0)
        platform.run_for(minutes=1)
    assert platform.metrics.latest(
        "job", "processing_rate_mb"
    ) == pytest.approx(3.0, rel=0.15)


def test_equation_1_lag():
    """time_lagged = bytes_lagged / processing capability."""
    platform = collector_platform()
    # Warm up throughput history, then dump a backlog.
    for __ in range(3):
        platform.scribe.get_category("cat").append(3.0 * 60.0)
        platform.run_for(minutes=1)
    platform.scribe.get_category("cat").append(4800.0)
    platform.run_for(minutes=2)
    lagged = platform.metrics.latest("job", "bytes_lagged_mb")
    time_lagged = platform.metrics.latest("job", "time_lagged")
    rate = platform.metrics.latest("job", "processing_rate_mb")
    assert lagged > 0
    assert time_lagged == pytest.approx(lagged / rate, rel=0.01)


def test_zero_throughput_with_backlog_is_infinite_lag():
    platform = collector_platform()
    # Tasks never ran (stop them before any processing history exists).
    for manager in platform.task_managers.values():
        for task in manager.tasks.values():
            task.stop()
    platform.scribe.get_category("cat").append(1000.0)
    platform.run_for(minutes=20)  # long enough that history is empty too
    assert platform.metrics.latest("job", "time_lagged") == INFINITE_LAG


def test_task_rate_stdev_reflects_skew():
    from repro.workloads import TrafficDriver

    platform = collector_platform()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=10.0)
    driver.add_source("cat", lambda t: 4.0)
    driver.start()
    category = platform.scribe.get_category("cat")
    category.set_weights([8.0, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1])
    platform.run_for(minutes=5)
    skewed = platform.metrics.latest("job", "task_rate_stdev")
    category.set_weights(None)
    platform.run_for(minutes=5)
    balanced = platform.metrics.latest("job", "task_rate_stdev")
    assert skewed > balanced
    assert balanced == pytest.approx(0.0, abs=0.1)


def test_the_written_stdev_is_aggregate_stdev_of_the_running_rates():
    """The collector folds the running tasks' rates into Welford as it
    reads them; what it writes must be ``aggregate.stdev`` of the same
    rates in the same order, bit for bit."""
    from repro.workloads import TrafficDriver

    platform = collector_platform()
    platform.provision(
        JobSpec(job_id="wide", input_category="cat", task_count=6,
                rate_per_thread_mb=0.3),
        partitions=8,
    )
    driver = TrafficDriver(platform.engine, platform.scribe, tick=10.0)
    driver.add_source("cat", lambda t: 4.0)
    driver.start()
    platform.scribe.get_category("cat").set_weights([5.0, 0.3, 1.7, 0.1, 2.9, 0.7, 0.2, 1.1])
    platform.run_for(minutes=4)
    store = MetricStore()
    collector = JobStatsCollector(
        platform.engine, platform.task_service, platform.shard_manager,
        platform.scribe, store,
    )
    collector.collect_once()
    for job_id in ("job", "wide"):
        rates = [
            task.last_rate_mb for task in collector._tasks_by_job()[job_id]
            if task.state == TaskState.RUNNING
        ]
        assert len(rates) >= 2 and len(set(rates)) > 1
        assert store.latest(job_id, "task_rate_stdev").hex() == stdev(rates).hex()


def test_running_tasks_gauge_and_reconciliation():
    platform = collector_platform()
    platform.run_for(minutes=2)
    assert platform.metrics.latest("job", "running_tasks") == 2.0
    # Stopping tasks behind the control plane's back is *corrected*: the
    # specs still exist, so the next refresh restarts them.
    for manager in platform.task_managers.values():
        manager.stop_job_tasks("job")
    platform.run_for(minutes=3)
    assert platform.metrics.latest("job", "running_tasks") == 2.0


# ----------------------------------------------------------------------
# Metric-store outage and series retention (PR 24)
# ----------------------------------------------------------------------
def outage_platform():
    from repro.workloads import TrafficDriver

    platform = collector_platform()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=10.0)
    driver.add_source("cat", lambda t: 3.0)
    driver.start()
    platform.run_for(minutes=5)
    return platform


def series_lengths(platform, job_id="job"):
    return {
        metric: len(column)
        for metric, column in platform.metrics.row(job_id).items()
    }


def test_no_collector_series_grows_while_the_metric_store_is_down():
    """Every collector sample goes through ``MetricStore.record_row``
    (``record`` is a one-metric call of it): during an outage the
    scaler's input goes dark — ``input_rate_mb`` included — and every
    dropped sample is counted."""
    healthy, failed = outage_platform(), outage_platform()
    ingested_before = healthy.metrics.samples_ingested
    before = series_lengths(failed)
    assert before["input_rate_mb"] > 0 and before["time_lagged"] > 0
    failed.metrics.fail()
    for platform in (healthy, failed):
        platform.run_for(minutes=5)
    assert series_lengths(failed) == before
    # No feedback loop is attached, so the twin ran the same five minutes:
    # what it ingested is exactly what the outage dropped.
    assert failed.metrics.dropped_points == (
        healthy.metrics.samples_ingested - ingested_before
    )
    failed.metrics.recover()
    failed.run_for(minutes=2)
    assert series_lengths(failed)["input_rate_mb"] == before["input_rate_mb"] + 2


@pytest.mark.parametrize("scaler_first", [True, False])
def test_input_rate_keeps_fifteen_days_whoever_touches_it_first(scaler_first):
    """The pattern analyzer's 14 days of per-minute input rates (paper
    section V-C) need the collector's retention. A reader must not get
    there first and create the series with the 2-day default: reads
    create nothing."""
    platform = Turbine.create(
        num_hosts=2, seed=47,
        config=PlatformConfig(num_shards=8, containers_per_host=2),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=2,
                rate_per_thread_mb=4.0),
        partitions=8,
    )
    if scaler_first:
        platform.attach_scaler().run_once()
        assert series_lengths(platform) == {}, "a read created a series"
        platform.run_for(minutes=3)
    else:
        platform.run_for(minutes=3)
        platform.attach_scaler().run_once()
    series = platform.metrics.row("job")["input_rate_mb"]
    assert len(series) >= 2
    assert series.retention == 15 * 86400.0


def test_a_jobs_stats_row_holds_exactly_the_six_collected_series():
    """The collector writes what a reader reads and nothing more: the
    scaler's detectors, the SLIs and the pattern analyzer read these six,
    and no reader exists for a per-job memory or CPU aggregate. Each
    column keeps what its longest reader's window needs: after 23 rounds
    (t = 60 … 1 380 s; the three rates start in the second), all 22
    samples of the two long columns, 16 of ``processing_rate_mb`` (its
    900 s) and 2 of each metric read only as its newest sample."""
    from repro.workloads import TrafficDriver

    platform = collector_platform()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=10.0)
    driver.add_source("cat", lambda t: 3.0)
    driver.start()
    platform.run_for(minutes=20)
    row = platform.metrics.row("job")
    assert {metric: len(series) for metric, series in row.items()} == {
        "input_rate_mb": 22, "processing_rate_mb": 16, "time_lagged": 22,
        "bytes_lagged_mb": 2, "running_tasks": 2, "task_rate_stdev": 2,
    }
    assert {metric: series.retention for metric, series in row.items()} == RETENTION
