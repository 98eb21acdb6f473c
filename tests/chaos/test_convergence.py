"""Unit tests for the convergence checker's invariants."""

from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos import ConvergenceChecker


def small_platform(seed=0):
    platform = Turbine.create(
        num_hosts=2, seed=seed,
        config=PlatformConfig(num_shards=8, containers_per_host=2),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=2)
    )
    platform.run_for(minutes=5)
    return platform


def test_steady_state_converges():
    platform = small_platform()
    report = ConvergenceChecker(platform).check()
    assert report.converged, report.violations()
    assert report.safety_ok
    assert report.violations() == {}


def test_store_outage_blocks_convergence():
    platform = small_platform()
    platform.job_store.fail()
    report = ConvergenceChecker(platform).check()
    assert not report.converged
    assert not report.store_visible
    assert "store_visible" in report.violations()
    # Safety is still checkable without the store.
    assert report.safety_ok
    platform.job_store.recover()
    assert ConvergenceChecker(platform).check().converged


def test_unapplied_patch_is_divergence():
    from repro.jobs.configs import ConfigLevel

    platform = small_platform()
    platform.job_service.patch("job", ConfigLevel.ONCALL, {"task_count": 4})
    report = ConvergenceChecker(platform).check()
    assert report.diverged == ["job"]
    assert not report.converged
    platform.run_for(minutes=3)   # syncer applies it; managers start tasks
    assert ConvergenceChecker(platform).check().converged


def test_dead_container_yields_missing_and_unplaced():
    platform = small_platform()
    platform.cluster.fail_host("host-0")
    report = ConvergenceChecker(platform).check()
    # Shards still assigned to the dead containers, and (if any of the
    # job's tasks lived there) specs without a running task.
    assert report.unplaced_shards
    assert not report.converged
    platform.run_for(minutes=5)   # failover + reconcile
    assert ConvergenceChecker(platform).check().converged


def test_duplicate_task_breaks_safety():
    platform = small_platform()
    # Copy one running task's entry into a second manager's table.
    owner = next(
        manager for manager in platform.task_managers.values()
        if manager.tasks
    )
    other = next(
        manager for manager in platform.task_managers.values()
        if manager is not owner
    )
    task_id, task = next(iter(owner.tasks.items()))
    other.tasks[task_id] = task
    report = ConvergenceChecker(platform).check()
    assert task_id in report.duplicates
    assert not report.safety_ok
