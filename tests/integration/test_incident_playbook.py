"""An end-to-end incident narrative across all the services.

One integration scenario exercising the full operational loop the paper
describes: a bad deploy makes a job OOM-loop → the health reporter pages →
the scaler raises memory → the job stabilizes → a later syncer outage
quarantines a job with a broken config → the oncall releases it after a
fix → the cluster returns to green.
"""

import pytest

from repro import JobSpec, PlatformConfig, ResourceVector, Turbine
from repro.jobs import ConfigLevel
import repro.ops.health
from repro.scaler import AutoScalerConfig
from repro.types import JobState
from repro.workloads import TrafficDriver


def build_platform():
    platform = Turbine.create(
        num_hosts=4, seed=37,
        config=PlatformConfig(num_shards=32, containers_per_host=2),
    )
    platform.attach_scaler(AutoScalerConfig(interval=120.0))
    platform.attach_health_reporter(interval=120.0)
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for index in range(4):
        platform.provision(
            JobSpec(job_id=f"job-{index}", input_category=f"cat-{index}",
                    task_count=4, rate_per_thread_mb=10.0),
        )
        driver.add_source(f"cat-{index}", lambda t: 8.0)
    driver.start()
    platform.run_for(minutes=10)
    return platform


def test_incident_lifecycle(monkeypatch):
    monkeypatch.setattr(repro.ops.health, "JOBS_LAGGING_WARN", 0.01)
    platform = build_platform()
    baseline_report = platform.health.check_once()
    assert baseline_report.pct_jobs_lagging == 0.0

    # --- Phase 1: a bad deploy shrinks job-0's memory reservation. ------
    platform.job_service.patch(
        "job-0", ConfigLevel.PROVISIONER,
        {"resources": {"cpu": 1.0, "memory_gb": 0.42}},
    )
    platform.run_for(minutes=15)
    assert platform.metrics.latest("job-0", "oom_events") is not None, (
        "the tight reservation must OOM under 8 MB/s of buffered input"
    )

    # --- Phase 2: the scaler detects OOM and raises the reservation. ----
    platform.run_for(minutes=15)
    memory = platform.job_service.expected_config("job-0")["resources"][
        "memory_gb"
    ]
    assert memory > 0.42
    platform.run_for(minutes=15)
    oom_series = platform.metrics.row("job-0")["oom_events"]
    recent = oom_series.values_in(platform.now - 600.0, platform.now)
    assert not recent, "OOMs stop once memory is right-sized"

    # --- Phase 3: a poisoned oncall config quarantines job-1. -----------
    # An actuator-visible failure: negative task count breaks spec
    # generation inside the plan.
    platform.job_service.patch(
        "job-1", ConfigLevel.ONCALL, {"task_count": -2}
    )
    platform.run_for(minutes=5)
    assert platform.job_store.state_of("job-1") == JobState.QUARANTINED
    assert platform.syncer.alerts, "quarantine must page the oncall"
    platform.health.check_once()
    assert any(
        "quarantined" in alert.what for alert in platform.health.alerts
    )

    # --- Phase 4: the oncall fixes the config and releases. -------------
    platform.job_service.clear_level("job-1", ConfigLevel.ONCALL)
    platform.syncer.release_quarantine("job-1")
    platform.run_for(minutes=5)
    assert platform.job_store.state_of("job-1") == JobState.RUNNING
    assert len(platform.tasks_of_job("job-1")) == 4

    # --- Phase 5: back to green. ----------------------------------------
    platform.run_for(minutes=10)
    final = platform.health.check_once()
    assert final.jobs_quarantined == 0
    assert final.pct_tasks_not_running == 0.0
