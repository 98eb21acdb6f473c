"""Every windowed metric read starts inside its column's retention.

``repro.tasks.stats.RETENTION`` keeps each collected metric only as long
as the longest window a reader opens on it: ``processing_rate_mb`` the
collector's own 900 s fallback, and three metrics one collection
interval, because they are read only as their newest sample. The guard
(``tests.metrics.helpers.read_horizons``) checks every windowed read of
every column during whole platform runs: the four benchmark workloads at
5 % scale, every drill arm at seed 7, and a day and two hours under each
scaler, which reaches the reads no workload or drill reaches (the
pattern analyzer's day-old windows, the reactive scaler's quiet window).
A read that starts at or after its column's horizon returns what it
would under any longer retention, so the short retentions change no
read; a reader that looks further back fails here.
"""

import pytest

from benchmarks.e2e import child
from benchmarks.e2e.workloads import WORKLOADS
from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos import all_scenarios, run_scenario
from repro.cluster import ResourceVector
from repro.scaler import AutoScalerConfig, ReactiveAutoScaler
from repro.tasks import stats
from repro.workloads import TrafficDriver
from tests.integration.test_reference_twin import CONTROL_ARMS
from tests.metrics.helpers import read_horizons

DAY = 86400.0

#: Every windowed reader of a metric column in ``src/repro``, with the
#: metric it reads: the runs must reach each, or the guard checks nothing.
READERS = {
    ("repro.tasks.stats._collect_job", "processing_rate_mb"),
    ("repro.scaler.snapshot.snapshot_job", "input_rate_mb"),
    ("repro.scaler.snapshot.snapshot_job", "oom_events"),
    ("repro.scaler.proactive._quiet_long_enough", "time_lagged"),
    ("repro.scaler.patterns._is_outlier", "input_rate_mb"),
    ("repro.scaler.patterns.validate_downscale", "input_rate_mb"),
    ("repro.scaler.reactive._quiet_long_enough", "time_lagged"),
    ("repro.scaler.reactive._quiet_long_enough", "oom_events"),
    ("repro.obs.sli._oom_rate", "oom_events"),
    ("repro.obs.sli._recovery_lag", "recovery_lag"),
}


def scaled_day(reactive):
    """26 hours of two jobs under one scaler: ``late`` is over-provisioned
    once its traffic drops after a day, so a downscale is weighed against
    the day before; ``tight`` runs out of memory in its first half hour."""
    platform = Turbine.create(num_hosts=3, seed=11, config=PlatformConfig(
        num_shards=32, containers_per_host=2,
    ))
    if reactive:
        platform.scaler = ReactiveAutoScaler(
            platform.engine, platform.job_service, platform.metrics,
            platform.scribe,
        )
    else:
        platform.attach_scaler(AutoScalerConfig(downscale_after=1200.0))
    platform.attach_slo()
    platform.start()
    platform.provision(JobSpec(
        job_id="late", input_category="late", task_count=8,
        rate_per_thread_mb=2.0,
    ))
    platform.provision(JobSpec(
        job_id="tight", input_category="tight", task_count=2,
        rate_per_thread_mb=50.0,
        resources_per_task=ResourceVector(cpu=1.0, memory_gb=0.45),
    ))
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    driver.add_source("late", lambda t: 12.0 if t < DAY else 1.0)
    driver.add_source("tight", lambda t: 60.0 if t < 1800.0 else 1.0)
    driver.start()
    platform.run_for(hours=26)


@pytest.fixture(scope="module")
def production_reads():
    with read_horizons() as horizons:
        for workload in sorted(WORKLOADS):
            child.run(workload, scale=0.05)
        for name in sorted(all_scenarios()):
            run_scenario(name, seed=7)
        for name in CONTROL_ARMS:
            run_scenario(name, seed=7, control=True)
        scaled_day(reactive=False)
        scaled_day(reactive=True)
    return horizons


def test_every_windowed_read_starts_inside_its_columns_retention(production_reads):
    assert production_reads.violations == []
    assert READERS <= set(production_reads.reads)


def test_a_retention_below_a_readers_window_fails_the_guard(monkeypatch):
    """``processing_rate_mb`` kept 600 s while the zero-rate fallback
    averages 900 s: the collector's fallback reads are the violations."""
    monkeypatch.setitem(stats.RETENTION, "processing_rate_mb", 600.0)
    with read_horizons() as horizons:
        scaled_day(reactive=False)
    assert horizons.violations
    assert {
        (reader, metric) for reader, metric, __, __ in horizons.violations
    } == {("repro.tasks.stats._collect_job", "processing_rate_mb")}
