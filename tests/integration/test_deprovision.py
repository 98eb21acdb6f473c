"""Job teardown: deprovision must leave no task, spec, or state behind."""

import pytest

from repro import JobSpec, PlatformConfig, Turbine
from repro.workloads import TrafficDriver


def platform_with_jobs(**config):
    platform = Turbine.create(
        num_hosts=2, seed=91,
        config=PlatformConfig(num_shards=16, containers_per_host=2, **config),
    )
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for name in ("keep", "drop"):
        platform.provision(
            JobSpec(job_id=name, input_category=f"cat-{name}", task_count=4)
        )
        driver.add_source(f"cat-{name}", lambda t: 2.0)
    driver.start()
    platform.run_for(minutes=5)
    return platform


def test_deprovision_removes_everything():
    platform = platform_with_jobs()
    assert len(platform.tasks_of_job("drop")) == 4
    platform.deprovision("drop")
    assert platform.tasks_of_job("drop") == []
    assert platform.task_service.specs_of("drop") == []
    assert "drop" not in platform.job_service.job_ids()
    assert platform.scribe.checkpoints.partitions_of("drop") == []
    assert platform.metrics.latest("drop", "time_lagged") is None
    # The surviving job is untouched.
    platform.run_for(minutes=5)
    assert len(platform.tasks_of_job("keep")) == 4


def test_deprovisioned_job_never_resurrects():
    platform = platform_with_jobs()
    platform.deprovision("drop")
    platform.run_for(minutes=10)  # refreshes, rebalances, syncs...
    assert platform.tasks_of_job("drop") == []


def test_gc_sweeps_orphaned_specs():
    """If deprovisioning dies between the store delete and the task stop,
    the State Syncer's next round converges the cluster anyway."""
    platform = platform_with_jobs()
    # The "crashed half-way" deprovision: store entry gone, tasks still up.
    platform.job_service.deprovision("drop")
    assert platform.tasks_of_job("drop"), "precondition: tasks orphaned"
    platform.run_for(minutes=2)  # ≥ one syncer round
    assert platform.tasks_of_job("drop") == []
    assert platform.task_service.specs_of("drop") == []


def reprovision_drop_after(platform, minutes):
    """Tear ``drop`` down, wait, and provision a new job under its id."""
    platform.deprovision("drop")
    platform.run_for(minutes=minutes)
    reborn_at = platform.now
    platform.provision(
        JobSpec(job_id="drop", input_category="cat-drop", task_count=4)
    )
    return reborn_at


def test_reprovisioned_id_inherits_no_rate_delta_state():
    """The stats collector's per-job head / processed stamps die with
    the job. A stamp that outlived it would be differenced against the
    new job's first round: 31 minutes of category growth booked as one
    minute of input (62 MB/s on a 2 MB/s category), sitting in the
    scaler's 10-minute rate average."""
    platform = platform_with_jobs()
    reprovision_drop_after(platform, minutes=30)
    platform.run_for(minutes=6)
    rates = [
        value for __, value in
        platform.metrics.series("drop", "input_rate_mb").window(0.0, platform.now)
    ]
    # Like any job first seen mid-run, the first round only plants the
    # stamps (a zero delta); every later sample is the driver's rate.
    assert rates[0] == 0.0
    assert len(rates) >= 4 and rates[1:] == [pytest.approx(2.0)] * (len(rates) - 1)


def test_deprovision_forgets_durable_checkpoints():
    """With the checkpoint plane attached, teardown also deletes the
    job's ``turbine.ckpt.<job>`` log and the plane's high-water marks —
    otherwise one log per job ever provisioned stays on the bus, and a
    job re-provisioned under the id is rolled forward to offsets the
    dead job committed."""
    platform = platform_with_jobs(durable_checkpoints=True)
    plane = platform.checkpoint_plane
    assert "turbine.ckpt.drop" in platform.scribe.logs  # vacuity guard
    reborn_at = reprovision_drop_after(platform, minutes=30)
    assert "turbine.ckpt.drop" not in platform.scribe.logs
    assert "drop" not in plane._high_water and "drop" not in plane._last_seq
    platform.run_for(minutes=3)
    assert plane.restores == 0 and list(plane.events) == []
    # Starts from offset 0: nothing can be committed faster than the
    # job's 4 tasks x 2 MB/s could have read since it was reborn.
    committed = sum(platform.scribe.checkpoints.snapshot("drop").values())
    assert 0.0 < committed <= 8.0 * (platform.now - reborn_at)
    assert "turbine.ckpt.drop" in platform.scribe.logs  # and is durable again
