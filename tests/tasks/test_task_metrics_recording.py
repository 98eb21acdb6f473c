"""Task Managers write no per-task metric entities: task ids outlive
``_unhost`` by design, so no teardown could reach such series."""

from repro import JobSpec, PlatformConfig, Turbine
from repro.workloads import TrafficDriver


def run_platform():
    platform = Turbine.create(
        num_hosts=2, seed=53,
        config=PlatformConfig(num_shards=8, containers_per_host=2),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=2,
                rate_per_thread_mb=4.0),
    )
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    driver.add_source("cat", lambda t: 4.0)
    driver.start()
    platform.run_for(minutes=10)
    return platform


def test_task_metrics_absent_by_default():
    platform = run_platform()
    assert platform.metrics.latest("job:0", "cpu_used") is None
    # Job-level metrics are always recorded regardless.
    assert platform.metrics.latest("job", "processing_rate_mb") > 0
