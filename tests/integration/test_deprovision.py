"""Job teardown: deprovision must leave no task, spec, or state behind."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import JobSpec, PlatformConfig, Turbine
from repro.chaos.convergence import ConvergenceChecker
from repro.errors import JobStoreError, ServiceUnavailableError
from repro.jobs import ConfigLevel
from repro.types import JobState
from repro.workloads import TrafficDriver

from tests.tasks import test_standby as standby


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


def assert_reads_the_drivers_rate(platform):
    """``drop``'s ``input_rate_mb`` samples. Like any job first seen
    mid-run, the first round only plants the stamps (a zero delta);
    every later sample is the driver's 2 MB/s."""
    rates = [
        value for __, value in
        platform.metrics.row("drop")["input_rate_mb"].window(0.0, platform.now)
    ]
    assert rates[0] == 0.0
    assert len(rates) >= 4 and rates[1:] == [pytest.approx(2.0)] * (len(rates) - 1)


def test_reprovisioned_id_inherits_no_rate_delta_state():
    """The stats collector's per-job head / processed stamps die with
    the job. A stamp that outlived it would be differenced against the
    new job's first round: 31 minutes of category growth booked as one
    minute of input (62 MB/s on a 2 MB/s category), sitting in the
    scaler's 10-minute rate average."""
    platform = platform_with_jobs()
    reprovision_drop_after(platform, minutes=30)
    platform.run_for(minutes=6)
    assert_reads_the_drivers_rate(platform)


def test_deprovision_forgets_durable_checkpoints():
    """With the checkpoint plane attached, teardown also deletes the
    job's ``turbine.ckpt.<job>`` log and the plane's high-water marks and
    record header —
    otherwise one log per job ever provisioned stays on the bus, and a
    job re-provisioned under the id is rolled forward to offsets the
    dead job committed."""
    platform = platform_with_jobs(durable_checkpoints=True)
    plane = platform.checkpoint_plane
    assert "turbine.ckpt.drop" in platform.scribe.logs  # vacuity guard
    reborn_at = reprovision_drop_after(platform, minutes=30)
    assert "turbine.ckpt.drop" not in platform.scribe.logs
    assert "drop" not in plane._high_water and "drop" not in plane._last_seq
    assert "drop" not in plane._headers
    platform.run_for(minutes=3)
    assert plane.restores == 0 and list(plane.events) == []
    # Starts from offset 0: nothing can be committed faster than the
    # job's 4 tasks x 2 MB/s could have read since it was reborn.
    committed = sum(platform.scribe.checkpoints.snapshot("drop").values())
    assert 0.0 < committed <= 8.0 * (platform.now - reborn_at)
    assert "turbine.ckpt.drop" in platform.scribe.logs  # and is durable again


# ----------------------------------------------------------------------
# One way out: the eager call and the syncer's sweep run one reclaim
# ----------------------------------------------------------------------
def orphan_state(platform):
    """``"<holder>:<job>"`` for every id the actuator, or any platform
    attribute with a ``held_jobs()`` — found by that method, not through
    ``_JOB_HOLDERS``, so a holder left out of the table still shows —
    enumerates and the Job Store lacks. A test helper until something
    under ``src/`` needs it (ROADMAP item 5)."""
    live = set(platform.job_store.job_ids())
    kept = {
        "specs": platform.task_service.job_ids(),
        "checkpoints": platform.scribe.checkpoints.job_ids(),
        "actuator": platform.actuator.known_job_ids(),
    }
    for name, value in vars(platform).items():
        if callable(getattr(value, "held_jobs", None)):
            kept[name] = value.held_jobs()
    return sorted(
        f"{name}:{job_id}"
        for name, job_ids in kept.items()
        for job_id in job_ids if job_id not in live
    )


def test_gc_path_leaves_nothing_behind():
    """The store delete alone, then one sync round: whatever the eager
    call reclaims, the sweep reclaims — it is the same body."""
    platform = platform_with_jobs(durable_checkpoints=True)
    platform.attach_scaler()
    platform.run_for(minutes=3)
    analyzer = platform.scaler.analyzer
    assert "drop" in analyzer.held_jobs() and "drop" in platform.stats._last
    assert platform.scribe.checkpoints.partitions_of("drop")
    assert "turbine.ckpt.drop" in platform.scribe.logs  # vacuity guards
    platform.job_service.deprovision("drop")
    platform.run_for(seconds=30)  # one sync round
    assert platform.scribe.checkpoints.partitions_of("drop") == []
    assert platform.metrics.latest("drop", "time_lagged") is None
    assert "drop" not in platform.metrics._rows
    assert "drop" not in platform.stats._last
    assert "turbine.ckpt.drop" not in platform.scribe.logs
    assert "drop" not in analyzer.held_jobs()
    assert orphan_state(platform) == []
    # And the id is clean for its next owner: no 30 minutes of category
    # growth booked as one minute of input.
    platform.run_for(minutes=30)
    platform.provision(
        JobSpec(job_id="drop", input_category="cat-drop", task_count=4)
    )
    platform.run_for(minutes=6)
    assert_reads_the_drivers_rate(platform)
    assert platform.checkpoint_plane.restores == 0


def test_sweep_forgets_what_a_zombie_recreated_after_the_forget():
    """A retained-set reconcile, not a spec sweep: during a Task Service
    outage the Task Managers restart a just-deleted job from their
    last-known-good snapshot, and what those tasks commit is kept under
    an id with no specs left to name it."""
    platform = platform_with_jobs()
    platform.task_service.fail()
    platform.deprovision("drop")
    assert platform.tasks_of_job("drop") == []
    platform.run_for(minutes=2)  # every manager refreshed once, degraded
    assert platform.tasks_of_job("drop")  # the zombies
    platform.task_service.recover()
    platform.run_for(minutes=2)
    assert platform.tasks_of_job("drop") == []
    assert orphan_state(platform) == ["actuator:drop", "checkpoints:drop"]
    platform.run_for(minutes=10)  # the next full anti-entropy scan
    assert orphan_state(platform) == []


def test_sweep_forgets_a_job_deleted_before_its_first_sync():
    """No specs, no checkpoints: only a holder (here the tracer, with
    the provisioning write's hand-off slot) still names the job."""
    platform = platform_with_jobs()
    platform.enable_tracing()
    platform.provision(JobSpec(job_id="brief", input_category="cat-drop"))
    platform.job_service.deprovision("brief")
    assert orphan_state(platform) == ["actuator:brief", "tracer:brief"]
    platform.run_for(seconds=30)
    assert orphan_state(platform) == []


def test_eager_teardown_ends_the_failure_streak_at_once():
    """``syncer`` is in the table: an id deleted and re-created between
    two rounds never looks gone to the change feed, and its new owner
    must not be one failed plan away from quarantine."""
    platform = platform_with_jobs()
    platform.job_service.patch("drop", ConfigLevel.ONCALL, {"task_count": -2})
    platform.run_for(seconds=60)
    assert platform.syncer.failure_count("drop") == 2
    platform.deprovision("drop")
    assert platform.syncer.failure_count("drop") == 0
    assert orphan_state(platform) == []


def test_reprovisioned_id_bootstraps_p_from_its_own_hint():
    platform = platform_with_jobs()
    platform.attach_scaler()
    platform.run_for(minutes=3)
    analyzer = platform.scaler.analyzer
    analyzer._jobs["drop"].rate_per_thread = 1.25  # what the old job taught
    platform.deprovision("drop")
    platform.run_for(minutes=5)
    platform.provision(JobSpec(
        job_id="drop", input_category="cat-drop", task_count=4,
        rate_per_thread_mb=8.0,
    ))
    platform.run_for(minutes=5)
    assert analyzer.rate_per_thread("drop", bootstrap=-1.0) == 8.0


def test_tracer_handoff_slots_leave_with_the_job():
    platform = platform_with_jobs()
    platform.enable_tracing()
    for job_id in ("keep", "drop"):
        platform.job_service.patch(job_id, ConfigLevel.ONCALL, {"task_count": 2})
    platform.run_for(minutes=2)
    assert "drop" in platform.tracer.held_jobs()  # the published sync plan
    platform.deprovision("drop")
    assert "drop" not in platform.tracer.held_jobs()
    assert "keep" in platform.tracer.held_jobs()
    assert any(e.job_id == "drop" for e in platform.tracer.events)  # record


def test_shed_then_deprovisioned_job_is_not_resumed_under_a_reused_id():
    """The Capacity Manager's resume list names jobs, not incarnations:
    a job re-provisioned under a shed-and-deleted id would be "resumed"
    into a forced restart it never needed."""
    platform = platform_with_jobs()
    platform.attach_scaler()
    manager = platform.attach_capacity_manager()
    # What a shed leaves (``CapacityManager._shed_low_priority``).
    platform.job_store.set_state("drop", JobState.STOPPED)
    platform.actuator.stop_tasks("drop")
    manager.stopped_jobs.append("drop")
    platform.deprovision("drop")
    assert manager.stopped_jobs == []
    platform.provision(
        JobSpec(job_id="drop", input_category="cat-drop", task_count=4)
    )
    platform.run_for(minutes=3)
    version = platform.job_store.read_running("drop").version
    platform.run_for(minutes=12)  # two capacity rounds, no pressure
    assert platform.job_store.read_running("drop").version == version
    assert [e.kind for e in manager.events] == []


def test_deprovision_during_a_store_outage_touches_nothing():
    """The store delete is the commit point: when it cannot be made the
    call raises with the job whole, instead of leaving a RUNNING job
    with no tasks, no specs and no diff for the syncer to act on."""
    platform = platform_with_jobs()
    platform.job_store.fail()
    with pytest.raises(ServiceUnavailableError):
        platform.deprovision("drop")
    assert len(platform.tasks_of_job("drop")) == 4
    assert len(platform.task_service.specs_of("drop")) == 4
    platform.job_store.recover()
    platform.run_for(minutes=30)
    assert len(platform.tasks_of_job("drop")) == 4
    assert ConvergenceChecker(platform).check().converged
    with pytest.raises(JobStoreError, match="unknown job"):
        platform.deprovision("never-provisioned")


def test_half_killed_job_is_reported_missing():
    """RUNNING in the store, running == expected, nothing dirty — and no
    specs: there is no diff for the syncer, so the oracle must say so."""
    platform = platform_with_jobs()
    assert ConvergenceChecker(platform).check().converged
    platform.actuator.stop_tasks("drop")
    platform.run_for(minutes=30)
    report = ConvergenceChecker(platform).check()
    assert platform.tasks_of_job("drop") == [] and report.diverged == []
    assert report.missing == ["drop"] and not report.converged


def test_deleted_job_neither_alerts_nor_stays_in_breach():
    """``slo`` is in the table: a deleted job's alert edges and open
    breach go with it, so the series nobody writes any more cannot fire
    as its good samples age out of the rule windows."""
    platform = Turbine.create(
        num_hosts=2, seed=91,
        config=PlatformConfig(num_shards=16, containers_per_host=2),
    )
    platform.attach_slo()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    # Three good minutes, then more traffic than one thread can take.
    driver.add_source("cat-drop", lambda t: 1.0 if t <= 360.0 else 8.0)
    driver.start()
    platform.provision(JobSpec(
        job_id="drop", input_category="cat-drop", task_count=1,
        rate_per_thread_mb=2.0,
    ))
    platform.run_for(minutes=12)
    slo = platform.slo
    assert any(breach.open for breach in slo.breaches)
    assert "drop" in slo.held_jobs() and slo._last_bad  # vacuity guards
    deleted_at = platform.now
    platform.deprovision("drop")
    assert "drop" not in slo.held_jobs()
    platform.run_for(minutes=45)
    assert [breach for breach in slo.breaches if breach.open] == []
    assert max(breach.end for breach in slo.breaches) == deleted_at
    assert [alert for alert in slo.alerts if alert.time > deleted_at] == []
    assert slo.budget_burned("drop", "lag") > 0.0  # the record stays


# ----------------------------------------------------------------------
# Nothing outlives its owner, under generated fault / mutation sequences
# ----------------------------------------------------------------------
def everything_attached():
    """The standby suite's fleet with every job holder attached."""
    platform = Turbine.create(
        num_hosts=standby.NUM_HOSTS, seed=5,
        config=PlatformConfig(
            num_shards=standby.NUM_SHARDS,
            containers_per_host=standby.CONTAINERS_PER_HOST,
            hot_standby=True, durable_checkpoints=True,
        ),
    )
    platform.attach_scaler()
    platform.attach_capacity_manager()
    platform.attach_slo()
    platform.enable_tracing()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    for job_id in standby.JOBS:
        standby.provision(platform, job_id)
        # More than the two tasks can take, so the scaler, the SLO plane
        # and the tracer's hand-off slots all have something to hold.
        driver.add_source(f"cat-{job_id}", lambda t: 6.0)
    driver.start()
    platform.run_for(minutes=8)
    # Vacuity guard: every always-keeping holder keeps something.
    for name in ("stats", "scaler", "checkpoint_plane", "slo", "tracer"):
        assert set(getattr(platform, name).held_jobs()) == set(standby.JOBS), name
    assert set(platform.scaler._last_unhealthy) == set(standby.JOBS)
    assert len(platform.slo._open) == len(standby.JOBS)
    return platform


def assert_gone_now(platform, job_id):
    """Eager means eager: nothing waits for the syncer's sweep."""
    assert job_id not in platform.metrics._rows
    assert f"turbine.ckpt.{job_id}" not in platform.scribe.logs
    assert [row for row in orphan_state(platform) if row.endswith(f":{job_id}")] == []


def synced_since(platform, when):
    return any(
        round_.time > when and not round_.skipped
        for round_ in platform.syncer.rounds
    )


#: The steps that read or write the Job Store, for ``JOBS[step[1]]``.
STORE_STEPS = (
    "rescale", "deprovision", "provision", "store_delete_only", "poison",
)


def apply_teardown_step(platform, step, state):
    """The standby suite's steps, plus the store-only delete and the two
    service outages and a poisoned config (failed plans, a dirty mark,
    then quarantine); a step the Job Store refuses is a no-op."""
    kind = step[0]
    store = platform.job_store
    if kind in ("store_outage", "task_service_outage"):
        service = store if kind == "store_outage" else platform.task_service
        service.fail() if step[1] else service.recover()
        return
    if kind not in STORE_STEPS:
        standby.apply_step(platform, step, state)
        return
    job_id = standby.JOBS[step[1] % len(standby.JOBS)]
    if not store.available:
        if kind == "deprovision":
            with pytest.raises(ServiceUnavailableError):
                platform.deprovision(job_id)
        return
    exists = store.exists(job_id)
    if kind == "store_delete_only":
        if exists:
            platform.job_service.deprovision(job_id)
            state["deleted_at"][job_id] = platform.now
    elif kind == "poison":
        if exists:
            platform.job_service.patch(
                job_id, ConfigLevel.ONCALL, {"task_count": -2}
            )
    elif kind == "provision" and not synced_since(
        platform, state["deleted_at"].get(job_id, -1.0)
    ):
        # Known limit: a store-only delete re-created before the syncer
        # has looked is one config change as far as the feed can tell.
        return
    else:
        standby.apply_step(platform, step, state)
        if kind == "deprovision" and exists:
            assert_gone_now(platform, job_id)


teardown_steps = st.lists(
    st.one_of(
        standby.step,
        st.tuples(st.just("store_delete_only"), standby.small),
        st.tuples(st.just("poison"), standby.small),
        st.tuples(st.just("store_outage"), st.booleans()),
        st.tuples(st.just("task_service_outage"), st.booleans()),
    ),
    min_size=1, max_size=24,
)


@settings(max_examples=40, deadline=None)
@given(sequence=teardown_steps)
def test_nothing_outlives_its_job(sequence):
    platform = everything_attached()
    state = {"hosts": standby.NUM_HOSTS, "deleted_at": {}}
    for step in sequence:
        apply_teardown_step(platform, step, state)
    platform.job_store.recover()
    platform.task_service.recover()
    platform.run_for(minutes=15)  # more than one full anti-entropy scan
    assert orphan_state(platform) == []
    for job_id in standby.JOBS:
        if not platform.job_store.exists(job_id):
            assert job_id not in platform.metrics._rows
            assert f"turbine.ckpt.{job_id}" not in platform.scribe.logs


# ----------------------------------------------------------------------
# The two ways out leave one world
# ----------------------------------------------------------------------
SECOND_LIFE_SERIES = (
    "input_rate_mb", "processing_rate_mb", "time_lagged", "bytes_lagged_mb",
    "running_tasks",
)


def second_life(eager):
    """What a job re-provisioned under a used id looks like for its first
    40 minutes, after its predecessor ran 40 minutes over capacity and
    was torn down — eagerly, or by the store delete alone."""
    platform = Turbine.create(
        num_hosts=4, seed=91,
        config=PlatformConfig(num_shards=16, containers_per_host=2),
    )
    platform.attach_scaler()
    platform.attach_slo()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    driver.add_source("cat-drop", lambda t: 6.0)
    driver.start()
    spec = JobSpec(
        job_id="drop", input_category="cat-drop", task_count=2,
        task_count_limit=16, rate_per_thread_mb=2.0,
    )
    platform.provision(spec, partitions=16)
    platform.run_for(minutes=40)
    if eager:
        platform.deprovision("drop")
    else:
        platform.job_service.deprovision("drop")
    platform.run_for(minutes=30)
    reborn_at = platform.now
    platform.provision(spec, partitions=16)
    platform.run_for(minutes=40)
    seen = {
        name: platform.metrics.row("drop")[name].window(reborn_at, platform.now)
        for name in SECOND_LIFE_SERIES
    }
    seen["scaler actions"] = [
        (a.time, a.action, a.task_count, a.threads, a.reason)
        for a in platform.scaler.actions
        if a.job_id == "drop" and a.time >= reborn_at
    ]
    seen["slo alerts"] = [
        (a.time, a.severity, a.what)
        for a in platform.slo.alerts if a.time >= reborn_at
    ]
    return seen


def test_the_two_ways_out_leave_one_world():
    """The delete is one command in the store's history, so what is
    derived from it must not depend on who applied it. (Not "the same as
    a fresh id": a fresh id hashes to other shards and so starts on other
    containers at other refresh phases.)"""
    eager, swept = second_life(eager=True), second_life(eager=False)
    assert all(eager.values())  # every observable has something to compare
    assert [name for name in eager if eager[name] != swept[name]] == []
    # The stale-stamp signature of an unreclaimed id: 30 minutes of
    # category growth read as one minute of input.
    assert [value for __, value in eager["input_rate_mb"]][:3] == [0.0, 6.0, 6.0]
