"""Property test: the change-driven SLO plane ≡ the full walk.

Two worlds receive the same metric streams, the same Job Store
mutations, the same outage windows and the same replication takeover.
World A is production: :class:`~repro.obs.slo.SloTracker` reads burn
rates only for (job, SLO) pairs with a bad sample inside the longest rule
window, over a :class:`~repro.obs.sli.SliEvaluator` that reads the two
per-job objectives from the Job Store's held view of the job
(``JobStore.view``, dropped when the job's change is notified).
World B is :mod:`repro.testing.reference`: every rule window of every
series read every round, the four-level config merge run on every read
(``FullReadSliEvaluator`` overrides only the ``_view`` seam).

After every segment the two must agree byte for byte on ``to_json()``
and on every alert and breach window — the skip is only allowed because
it is exact, so any difference at all is a bug.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import DegradedModeError, JobStoreError
from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore
from repro.metrics.store import MetricStore
from repro.obs.sli import SliEvaluator
from repro.obs.slo import DEFAULT_BURN_RULES, BurnRateRule, SloTracker
from repro.sim.engine import Engine
from repro.testing.reference import FullReadSliEvaluator, FullWalkSloTracker
from repro.types import JobState

JOBS = ("job-0", "job-1", "job-2")
INTERVAL = 60.0
#: Short rule windows, so generated runs cross "bad sample leaves the
#: longest window" many times (the default 6 h needs 360 rounds each).
SHORT_RULES = (
    BurnRateRule(1200.0, 300.0, 10.0, "page"),
    BurnRateRule(2400.0, 600.0, 4.0, "warn"),
)


class World:
    """One tracker over a real Job Store, fed by hand once a minute."""

    def __init__(self, tracker_cls, sli_cls, rules):
        self.engine = Engine(seed=1)
        self.store = JobStore()
        self.service = JobService(self.store)
        self.metrics = MetricStore()
        self.sli = sli_cls(self.service, self.metrics)
        self.tracker = tracker_cls(
            self.engine, self.sli, rules=rules, interval=INTERVAL
        )
        for job_id in JOBS:
            self.service.provision(
                JobSpec(job_id=job_id, input_category="cat", task_count=2)
            )
        #: A follower's view of the store, captured by ``snapshot`` and
        #: installed by ``takeover`` (state-machine replication failover).
        self.follower = None

    def round(self, lags, running, oom):
        """One simulated minute: land the stats, then judge."""
        self.engine.run_for(INTERVAL)
        now = self.engine.now
        for job_id, lag in zip(JOBS, lags):
            self.metrics.record(job_id, "time_lagged", now, lag)
            self.metrics.record(job_id, "processing_rate_mb", now, 2.0)
            self.metrics.record(job_id, "running_tasks", now, running)
        if oom is not None:
            self.metrics.record(JOBS[oom], "oom_events", now, 1.0)
        self.tracker.evaluate_once()

    def apply(self, step):
        kind = step[0]
        if kind == "run":
            __, rounds, lags, running, oom = step
            for __ in range(rounds):
                self.round(lags, running, oom)
        elif kind == "fail":
            self.store.fail()
        elif kind == "recover":
            self.store.recover()
        elif kind == "snapshot":
            self.follower = self.store.dump_snapshot()
        elif kind == "takeover":
            if self.follower is not None:
                self.store.install_state(
                    JobStore.load_snapshot(self.follower)
                )
        else:
            self.mutate(step)

    def mutate(self, step):
        """A Job Store write; refused identically in both worlds while
        the store is down or the job is gone."""
        kind, index = step[0], step[1]
        job_id = JOBS[index]
        try:
            if kind == "patch_lag":
                self.service.patch(
                    job_id, ConfigLevel.ONCALL,
                    {"slo": {"max_lag_seconds": step[2]}},
                )
            elif kind == "patch_count":
                self.service.patch(
                    job_id, ConfigLevel.ONCALL, {"task_count": step[2]}
                )
            elif kind == "clear_oncall":
                self.service.clear_level(job_id, ConfigLevel.ONCALL)
            elif kind == "quarantine":
                self.store.set_state(job_id, JobState.QUARANTINED)
            elif kind == "release":
                self.store.set_state(job_id, JobState.RUNNING)
            elif kind == "deprovision":
                self.service.deprovision(job_id)
                # What the platform's reclaim does once the delete is in.
                self.tracker.forget_job(job_id)
            elif kind == "provision":
                self.service.provision(
                    JobSpec(job_id=job_id, input_category="cat", task_count=2)
                )
        except (DegradedModeError, JobStoreError):
            pass

    def observable(self):
        tracker = self.tracker
        return (
            tracker.to_json(),
            [(a.time, a.severity, a.what, a.runbook) for a in tracker.alerts],
            [(b.job_id, b.slo, b.start, b.end) for b in tracker.breaches],
            sorted(key for key, firing in tracker._firing.items() if firing),
            tracker.evaluations,
        )


def worlds(rules):
    return (
        World(SloTracker, SliEvaluator, rules),
        World(FullWalkSloTracker, FullReadSliEvaluator, rules),
    )


def assert_same(production, reference):
    assert production.observable() == reference.observable()


job_index = st.integers(0, len(JOBS) - 1)
#: Lags on both sides of the default 90 s objective and of the patched
#: ones below, so ONCALL patches flip verdicts without new samples.
lag_value = st.sampled_from([5.0, 60.0, 200.0, 900.0])
mutation = st.one_of(
    st.tuples(st.just("patch_lag"), job_index,
              st.sampled_from([30.0, 120.0, 600.0])),
    st.tuples(st.just("patch_count"), job_index, st.integers(1, 4)),
    st.tuples(st.just("clear_oncall"), job_index),
    st.tuples(st.just("quarantine"), job_index),
    st.tuples(st.just("release"), job_index),
    st.tuples(st.just("deprovision"), job_index),
    st.tuples(st.just("provision"), job_index),
    st.tuples(st.just("fail")),
    st.tuples(st.just("recover")),
    st.tuples(st.just("snapshot")),
    st.tuples(st.just("takeover")),
)
run = st.tuples(
    st.just("run"),
    st.sampled_from([1, 2, 6, 12, 25, 45]),
    st.tuples(lag_value, lag_value, lag_value),
    st.sampled_from([0.0, 1.0, 2.0]),
    st.one_of(st.none(), job_index),
)
#: Every mutation is followed by rounds that judge under it.
steps = st.lists(
    st.tuples(st.one_of(st.none(), mutation), run), min_size=1, max_size=16
).map(lambda pairs: [step for pair in pairs for step in pair if step])


@settings(max_examples=60, deadline=None)
@given(sequence=steps)
def test_change_driven_tracker_equals_full_walk(sequence):
    production, reference = worlds(SHORT_RULES)
    for step in sequence:
        production.apply(step)
        reference.apply(step)
        assert_same(production, reference)
    # Settle: store back, then quiet (good on every SLO whatever was
    # patched) for long enough that every pair leaves the longest window
    # and is read one last time, in both worlds.
    for world in (production, reference):
        world.apply(("recover",))
        world.apply(("run", 70, (5.0, 5.0, 5.0), 4.0, None))
    assert_same(production, reference)
    assert production.tracker._last_bad == {}


def test_bad_then_quiet_past_the_six_hour_window_then_bad_again():
    """The default rules, end to end: a pair burns, goes quiet for longer
    than the 6 h window (forgotten long before, with budget still burned
    in the long windows), then burns again — the second alert must fire
    exactly as in the full walk."""
    production, reference = worlds(DEFAULT_BURN_RULES)
    script = [
        ("run", 30, (5.0, 5.0, 5.0), 2.0, None),
        ("run", 20, (900.0, 5.0, 5.0), 2.0, None),    # job-0 burns
        ("run", 370, (5.0, 5.0, 5.0), 2.0, None),     # > 6 h of quiet
        ("run", 20, (900.0, 5.0, 900.0), 2.0, None),  # and again
        ("run", 10, (5.0, 5.0, 5.0), 2.0, None),
    ]
    forgotten = None
    for index, step in enumerate(script):
        production.apply(step)
        reference.apply(step)
        assert_same(production, reference)
        if index == 2:
            forgotten = dict(production.tracker._last_bad)
    assert forgotten == {}
    pages = [
        alert for alert in production.tracker.alerts
        if alert.severity == "page" and alert.what.startswith("job-0: lag")
    ]
    assert len(pages) == 2  # one per burn, none in between


def test_objectives_follow_oncall_patches_without_a_new_sample():
    """The store's held view is dropped by the write itself: an ONCALL
    patch of the lag objective or the task count flips the very next
    verdict."""
    store = JobStore()
    service = JobService(store)
    metrics = MetricStore()
    sli = SliEvaluator(service, metrics)
    service.provision(JobSpec(job_id="job", input_category="c", task_count=4))
    metrics.record("job", "running_tasks", 60.0, 2.0)
    assert sli.lag_slo_seconds("job") == 90.0
    assert sli.availability("job") == 0.5
    service.patch("job", ConfigLevel.ONCALL, {"slo": {"max_lag_seconds": 30.0}})
    service.patch("job", ConfigLevel.ONCALL, {"task_count": 2})
    assert sli.lag_slo_seconds("job") == 30.0
    assert sli.availability("job") == 1.0
    service.clear_level("job", ConfigLevel.ONCALL)
    assert sli.lag_slo_seconds("job") == 90.0
    assert sli.availability("job") == 0.5


def test_objective_reads_fail_like_the_merged_read():
    """Outage and unknown-job behaviour is the merged read's: a held
    view must never answer for a store that would have raised."""
    import pytest

    store = JobStore()
    service = JobService(store)
    sli = SliEvaluator(service, MetricStore())
    service.provision(JobSpec(job_id="job", input_category="c", task_count=4))
    assert sli.lag_slo_seconds("job") == 90.0  # now held by the store
    store.fail()
    with pytest.raises(DegradedModeError):
        sli.lag_slo_seconds("job")
    store.recover()
    assert sli.lag_slo_seconds("job") == 90.0
    # A takeover by a follower that never saw the job: no change-feed
    # entry names it, and the read must still raise "unknown job".
    store.install_state(JobStore())
    with pytest.raises(JobStoreError, match="unknown job"):
        sli.lag_slo_seconds("job")
