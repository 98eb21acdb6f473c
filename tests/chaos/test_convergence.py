"""Unit tests for the convergence checker's invariants."""

from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos import ConvergenceChecker, all_scenarios, run_scenario
from repro.jobs.configs import config_diff
from repro.types import JobState


def small_platform(seed=0, jobs=("job",)):
    platform = Turbine.create(
        num_hosts=2, seed=seed,
        config=PlatformConfig(num_shards=8, containers_per_host=2),
    )
    platform.start()
    for job_id in jobs:
        platform.provision(
            JobSpec(job_id=job_id, input_category="cat", task_count=2)
        )
    platform.run_for(minutes=5)
    return platform


def re_merged_divergence(platform):
    """The config verdict the long way: Algorithm 1 re-run for every
    RUNNING job and diffed against its running config (dirty counts as
    diverged). Reads only, so sampling it changes no run."""
    store = platform.job_store
    return [
        job_id for job_id in store.job_ids()
        if store.state_of(job_id) == JobState.RUNNING and (
            store.is_dirty(job_id) or config_diff(
                store.read_running(job_id).config,
                store.merged_expected(job_id),
            )
        )
    ]


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


def test_a_stamped_fleet_is_checked_without_a_merge(count_merges):
    """Once the State Syncer has stamped every job converged, a check
    reads the stamps: no Algorithm 1 merge at all, and the same verdict
    as a re-merge."""
    jobs = ("job-a", "job-b", "job-c")
    platform = small_platform(jobs=jobs)
    store = platform.job_store
    assert all(
        store._merges[job_id].stamped(store._running[job_id].version)
        for job_id in jobs
    )
    merges = count_merges()
    report = ConvergenceChecker(platform).check()
    assert merges == []
    assert report.converged, report.violations()
    assert report.diverged == re_merged_divergence(platform) == []


def test_an_unstamped_job_is_judged_without_keeping_a_merge(count_merges):
    """A job changed since its stamp is diffed against a fresh merge
    that is not kept: the check leaves the store's merges as it found
    them, and the syncer then plans the change as it would have."""
    from repro.jobs.configs import ConfigLevel

    platform = small_platform(jobs=("job-a", "job-b"))
    store = platform.job_store
    platform.job_service.patch("job-a", ConfigLevel.ONCALL, {"task_count": 3})
    held = dict(store._merges)
    merges = count_merges()
    report = ConvergenceChecker(platform).check()
    assert len(merges) == 1
    assert store._merges == held
    assert report.diverged == re_merged_divergence(platform) == ["job-a"]
    platform.run_for(minutes=3)
    assert ConvergenceChecker(platform).check().converged


def test_every_drill_sample_matches_a_re_merge(monkeypatch):
    """At every invariant sample of every registered drill (seed 7), the
    config verdict read from the store's stamps is the re-merged one."""
    samples = []
    real_check = ConvergenceChecker.check

    def check(self):
        report = real_check(self)
        if report.store_visible:
            samples.append((
                scenario, self._platform.now, report.diverged,
                re_merged_divergence(self._platform),
            ))
        return report

    monkeypatch.setattr(ConvergenceChecker, "check", check)
    for scenario in sorted(all_scenarios()):
        run_scenario(scenario, seed=7)
        assert samples and samples[-1][0] == scenario, f"{scenario}: no sample"
    for scenario, now, diverged, re_merged in samples:
        assert diverged == re_merged, f"{scenario} at t={now:g}"
    # Not vacuous: some samples catch a job mid-convergence.
    assert any(diverged for _, _, diverged, _ in samples)
