"""Property-based quarantine lifecycle under randomized store outages.

A poisoned oncall config drives a job toward quarantine while the Job
Store flaps through randomized 30-second availability windows. At every
step the safety invariants (no duplicate tasks, no orphans) must hold;
skipped syncer rounds during outages must not count toward quarantine;
and after the poison is fixed and the quarantine released, the platform
must fully converge.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos import ConvergenceChecker
from repro.jobs import ConfigLevel
from repro.types import JobState

#: Store availability per 30 s chunk (True = outage window).
outage_plans = st.lists(st.booleans(), min_size=4, max_size=20)


def quarantine_platform(seed):
    platform = Turbine.create(
        num_hosts=2, seed=seed,
        config=PlatformConfig(num_shards=16, containers_per_host=2),
    )
    platform.start()
    platform.provision(
        JobSpec(job_id="job", input_category="cat", task_count=2)
    )
    platform.run_for(minutes=5)
    return platform


@settings(max_examples=15, deadline=None)
@given(outage_plan=outage_plans, seed=st.integers(0, 3))
def test_quarantine_lifecycle_under_store_outages(outage_plan, seed):
    platform = quarantine_platform(seed)
    checker = ConvergenceChecker(platform)
    assert checker.check().safety_ok

    # Poison the oncall level: spec generation fails inside every sync
    # plan, so the job marches toward quarantine — but only on rounds
    # that actually run.
    platform.job_service.patch("job", ConfigLevel.ONCALL, {"task_count": -1})

    rounds_before = len(platform.syncer.rounds)
    for store_down in outage_plan:
        if store_down:
            platform.job_store.fail()
        else:
            platform.job_store.recover()
        platform.run_for(seconds=30.0)
        assert checker.check().safety_ok

    new_rounds = platform.syncer.rounds[rounds_before:]
    if any(outage_plan):
        assert any(r.skipped for r in new_rounds), (
            "outage windows must skip rounds, not crash the syncer"
        )
    # Skipped rounds never count as plan failures.
    assert len([r for r in new_rounds if r.failed]) + len(
        [r for r in new_rounds if r.skipped]
    ) <= len(new_rounds)

    # Store stays up: three real failed rounds quarantine the job.
    platform.job_store.recover()
    platform.run_for(minutes=3)
    assert checker.check().safety_ok
    assert platform.job_store.state_of("job") == JobState.QUARANTINED
    assert any(job_id == "job" for __, job_id, __r in platform.syncer.alerts)
    # Atomicity at the cluster level: the job is either still on its
    # last good config or fully stopped awaiting resync — never a
    # half-applied hybrid (and never duplicated, per safety_ok).
    assert len(platform.tasks_of_job("job")) in (0, 2)

    # Oncall fixes the config and releases the quarantine: the platform
    # must resync and fully converge.
    platform.job_service.patch("job", ConfigLevel.ONCALL, {"task_count": 3})
    platform.syncer.release_quarantine("job")
    platform.run_for(minutes=4)
    report = checker.check()
    assert report.converged, report.violations()
    assert len(platform.tasks_of_job("job")) == 3


@settings(max_examples=10, deadline=None)
@given(outage_plan=outage_plans)
def test_no_quarantine_without_real_failures(outage_plan):
    """Store outages alone (healthy configs) must never quarantine."""
    platform = quarantine_platform(seed=1)
    checker = ConvergenceChecker(platform)
    for store_down in outage_plan:
        if store_down:
            platform.job_store.fail()
        else:
            platform.job_store.recover()
        platform.run_for(seconds=30.0)
        assert checker.check().safety_ok
    platform.job_store.recover()
    platform.run_for(minutes=2)
    assert platform.job_store.state_of("job") == JobState.RUNNING
    assert checker.check().converged
