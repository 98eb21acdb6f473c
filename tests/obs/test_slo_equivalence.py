"""Property test: the change-driven SLO plane ≡ the full walk.

Two worlds receive the same metric streams, the same Job Store
mutations, the same outage windows (Job Store and metric store) and the
same replication takeover.
World A is production: :class:`~repro.obs.slo.SloTracker` judges a job's
specs in one pass over its state, view and metric row, keeps the verdicts
as one byte per (round, SLO) in a per-job ledger read by counting, and
reads a burn-rate rule only while the pair's newest bad verdict is inside
that rule's short window, over a :class:`~repro.obs.sli.SliEvaluator`
that reads the two per-job objectives from the Job Store's held view of
the job (``JobStore.view``, dropped when the job's change is notified).
World B is :mod:`repro.testing.reference`: a 0/1 series per (job, SLO)
in a private ``MetricStore`` read by ``average_over``, one ``job_sli``
call per pair, both windows of every rule of every series read every
round, the four-level config merge run on every read
(``FullReadSliEvaluator`` overrides only the ``_view`` seam).

After every segment the two must agree byte for byte on ``to_json()``
and on every alert and breach window — the skip is only allowed because
it is exact, so any difference at all is a bug.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.obs.slo
from repro.errors import DegradedModeError, JobStoreError
from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore
from repro.metrics.store import MetricStore
from repro.obs.sli import SliEvaluator
from repro.obs.slo import (
    DEFAULT_BURN_RULES,
    BurnRateRule,
    SloSpec,
    SloTracker,
)
from repro.sim.engine import Engine
from repro.testing.reference import FullReadSliEvaluator, FullWalkSloTracker
from repro.types import JobState
from tests.tasks.helpers import python_calls

JOBS = ("job-0", "job-1", "job-2")
#: Provisioned with the others but fed no metric until a ``feed_late``
#: step: a job before its first stats round (every verdict ``None``).
LATE = "job-late"
INTERVAL = repro.obs.slo.EVAL_INTERVAL
#: Short rule windows, so generated runs cross "bad sample leaves the
#: longest window" many times (the default 6 h needs 360 rounds each).
SHORT_RULES = (
    BurnRateRule(1200.0, 300.0, 10.0, "page"),
    BurnRateRule(2400.0, 600.0, 4.0, "warn"),
)


#: Two specs on one SLI, a third on it with the other comparator, and a
#: ``>=`` spec: the pass must judge each against its own threshold.
TWICE_ON_ONE_SLI = (
    SloSpec(name="lag", sli="lag_seconds", target=0.99,
            compliance_window=6 * 3600.0, threshold=None),
    SloSpec(name="lag-tight", sli="lag_seconds", target=0.9,
            compliance_window=3600.0, threshold=50.0),
    SloSpec(name="availability", sli="availability", target=0.999,
            compliance_window=6 * 3600.0, threshold=0.9, comparator=">="),
    SloSpec(name="busy", sli="lag_seconds", target=0.5,
            compliance_window=3600.0, threshold=100.0, comparator=">="),
    SloSpec(name="oom", sli="oom_rate", target=0.999,
            compliance_window=6 * 3600.0, threshold=0.0),
)


class World:
    """One tracker over a real Job Store, fed by hand once a minute."""

    def __init__(self, tracker_cls, sli_cls, rules, specs=None):
        self.engine = Engine(seed=1)
        self.store = JobStore()
        self.service = JobService(self.store)
        self.metrics = MetricStore()
        self.sli = sli_cls(self.service, self.metrics)
        # The burn rules are read once, when the tracker is built.
        with mock.patch.object(repro.obs.slo, "DEFAULT_BURN_RULES", rules):
            self.tracker = tracker_cls(self.engine, self.sli, specs=specs)
        self.late_fed = False
        for job_id in (*JOBS, LATE):
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
        fed = zip((*JOBS, LATE) if self.late_fed else JOBS, (*lags, lags[0]))
        for job_id, lag in fed:
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
        elif kind == "metrics_fail":
            self.metrics.fail()
        elif kind == "metrics_recover":
            self.metrics.recover()
        elif kind == "feed_late":
            self.late_fed = True
        elif kind == "recovery":
            # A task of the job finished recovering: ``recovery`` judges
            # the job for the next RECOVERY_WINDOW and has no sample
            # (no verdict) before and after.
            self.metrics.record(JOBS[step[1]], "recovery_lag", self.engine.now, step[2])
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
            sorted(tracker._firing),
            tracker.evaluations,
        )


def worlds(rules, specs=None):
    return (
        World(SloTracker, SliEvaluator, rules, specs),
        World(FullWalkSloTracker, FullReadSliEvaluator, rules, specs),
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
    st.tuples(st.just("metrics_fail")),
    st.tuples(st.just("metrics_recover")),
    st.tuples(st.just("feed_late")),
    st.tuples(st.just("recovery"), job_index, st.sampled_from([30.0, 300.0])),
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
@given(sequence=steps, specs=st.sampled_from([None, TWICE_ON_ONE_SLI]))
def test_change_driven_tracker_equals_full_walk(sequence, specs):
    production, reference = worlds(SHORT_RULES, specs)
    for step in sequence:
        production.apply(step)
        reference.apply(step)
        assert_same(production, reference)
    # Settle: store back, then quiet (good on every SLO whatever was
    # patched) for long enough that every pair leaves the longest window
    # and is read one last time, in both worlds.
    # ``busy`` (lag >= 100 is good) never goes quiet on good lags, so the
    # settle only drains the default spec set.
    for world in (production, reference):
        world.apply(("recover",))
        world.apply(("metrics_recover",))
        world.apply(("run", 70, (5.0, 5.0, 5.0), 4.0, None))
    assert_same(production, reference)
    if specs is None:
        assert production.tracker._last_bad == {}
        assert production.tracker._firing == set()


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


def test_a_thousand_rounds_past_retention_and_compaction():
    """Ledger ≡ series over 1 110 rounds: past the 7.5 h retention (450
    rounds), so rows trim every round, and past the first compaction
    (~900), with rounds where only some specs judge (the late job before
    its first stats; ``recovery`` outside its sample's window) and a
    deprovision followed by a re-provision of the same id."""
    production, reference = worlds(DEFAULT_BURN_RULES)
    good, bad = (5.0, 5.0, 5.0), (900.0, 5.0, 200.0)
    script = [
        ("run", 60, good, 2.0, None),
        ("recovery", 1, 300.0),          # job-1 recovery judged bad
        ("run", 40, bad, 2.0, 0),        # job-0 OOMs
        ("feed_late",),
        ("run", 200, good, 2.0, None),
        ("deprovision", 2),
        ("run", 100, good, 2.0, None),
        ("provision", 2),
        ("recovery", 2, 30.0),           # the new job-2 recovers fast
        ("run", 150, bad, 1.0, None),    # half its tasks missing
        ("run", 400, good, 2.0, None),
        ("recovery", 0, 300.0),
        ("run", 60, bad, 2.0, 1),
        ("run", 100, good, 2.0, None),
    ]
    for step in script:
        production.apply(step)
        reference.apply(step)
        assert_same(production, reference)
    rounds = sum(step[1] for step in script if step[0] == "run")
    assert rounds >= 1000
    ledger = production.tracker._ledgers["job-0"]
    assert ledger.head > 0 and len(ledger.times) < rounds  # trimmed, compacted
    assert reference.tracker._store.read_stats()["compactions"] > 0
    rows = {(row["job"], row["slo"]) for row in production.tracker.report()["slos"]}
    assert ("job-1", "recovery") in rows and ("job-0", "recovery") in rows
    assert (LATE, "lag") in rows


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
    assert sli.job_sli("job", "availability", 0.0) == 0.5
    service.patch("job", ConfigLevel.ONCALL, {"slo": {"max_lag_seconds": 30.0}})
    service.patch("job", ConfigLevel.ONCALL, {"task_count": 2})
    assert sli.lag_slo_seconds("job") == 30.0
    assert sli.job_sli("job", "availability", 0.0) == 1.0
    service.clear_level("job", ConfigLevel.ONCALL)
    assert sli.lag_slo_seconds("job") == 90.0
    assert sli.job_sli("job", "availability", 0.0) == 0.5


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


def test_metric_store_outage_mid_sequence_and_a_job_with_no_stats_yet():
    """The platform store drops every write for ten minutes: freshness
    goes bad in both worlds at the same round, lag keeps judging the
    stale sample, and the never-fed job has no verdict at all until its
    first stats land."""
    production, reference = worlds(SHORT_RULES)
    script = [
        ("run", 5, (5.0, 5.0, 200.0), 2.0, None),
        ("metrics_fail",),
        ("run", 10, (900.0, 5.0, 5.0), 2.0, 1),
        ("metrics_recover",),
        ("run", 3, (5.0, 5.0, 5.0), 2.0, None),
        ("feed_late",),
        ("run", 12, (5.0, 200.0, 5.0), 1.0, None),
    ]
    for index, step in enumerate(script):
        production.apply(step)
        reference.apply(step)
        assert_same(production, reference)
        if index == 4:
            late = [row for row in production.tracker.report()["slos"]
                    if row["job"] == LATE]
            # Only ``oom`` judges a job with no series at all (0 events).
            assert [row["slo"] for row in late] == ["oom"]
    stale = [b for b in production.tracker.breaches if b.slo == "freshness"]
    assert {b.job_id for b in stale} == set(JOBS)
    assert all(b.start == 9 * INTERVAL and b.end == 16 * INTERVAL for b in stale)
    assert LATE in {row["job"] for row in production.tracker.report()["slos"]
                    if row["slo"] == "lag"}


def test_each_rule_is_read_only_inside_its_own_short_window():
    """Default rules: the page rule's short window is 5 min, the warn
    rule's 30. After the burn stops the page rule is no longer read
    once its short window holds no bad sample, the warn rule 25 minutes
    later, and both end not firing — alerts as in the full walk."""
    production, reference = worlds(DEFAULT_BURN_RULES)
    tracker = production.tracker

    def reads(step):
        # Only job-0's lag pair ever burns here, so every ledger read a
        # round makes is one of its rule windows.
        before = tracker.window_reads
        production.apply(step)
        count = tracker.window_reads - before
        reference.apply(step)
        assert_same(production, reference)  # (the report reads too)
        return count

    good, bad = (5.0, 5.0, 5.0), (900.0, 5.0, 5.0)
    reads(("run", 5, good, 2.0, None))
    assert reads(("run", 20, bad, 2.0, None)) == 20 * 4  # both rules burn
    assert tracker._firing == {("job-0", "lag", 0), ("job-0", "lag", 1)}
    # Rounds 1–5 after the burn: the bad sample is still inside the page
    # rule's 5-minute window, so both rules are read.
    assert reads(("run", 5, good, 2.0, None)) >= 5 * 2
    # Rounds 6–30: only the warn rule (short window, then long while it
    # still burns) is read; the page rule is set not-firing unread.
    assert 25 <= reads(("run", 25, good, 2.0, None)) <= 25 * 2
    assert ("job-0", "lag", 0) not in tracker._firing
    assert ("job-0", 0) in tracker._last_bad
    # Round 31: visited one last time with nothing to read, and forgotten.
    assert reads(("run", 10, good, 2.0, None)) == 0
    assert tracker._last_bad == {}
    assert tracker._firing == set()
    severities = [alert.severity for alert in tracker.alerts]
    assert sorted(severities) == ["page", "warn"]


def test_forget_job_mid_breach_closes_it_and_drops_every_edge():
    production, reference = worlds(SHORT_RULES)
    for step in (
        ("run", 5, (5.0, 5.0, 5.0), 2.0, None),
        ("run", 10, (900.0, 5.0, 5.0), 0.0, 0),   # lag, availability, oom
    ):
        production.apply(step)
        reference.apply(step)
    tracker = production.tracker
    assert {key[0] for key in tracker._open} == {"job-0", "job-1", "job-2"}
    # The table holds the rules that fire, and nothing for those that do not.
    assert tracker._firing == {
        *(("job-0", slo, rule) for slo in ("availability", "lag", "oom") for rule in (0, 1)),
        *((job, "availability", rule) for job in ("job-1", "job-2") for rule in (0, 1)),
    }
    forgotten_at = production.engine.now
    for world in (production, reference):
        world.apply(("deprovision", 0))
    assert "job-0" not in tracker.held_jobs()
    assert not any(key[0] == "job-0" for key in tracker._firing)
    assert_same(production, reference)
    closed = [b for b in tracker.breaches if b.job_id == "job-0"]
    assert closed and all(b.end == forgotten_at for b in closed)
    for step in (
        ("run", 40, (5.0, 5.0, 5.0), 2.0, None),
        ("provision", 0),
        ("run", 12, (900.0, 5.0, 5.0), 2.0, None),
        ("run", 30, (5.0, 5.0, 5.0), 2.0, None),
    ):
        production.apply(step)
        reference.apply(step)
        assert_same(production, reference)
    assert tracker._last_bad == {}


class TestCallCount:
    """What the one pass buys, independent of the hardware: Python-level
    calls per judged job in one evaluation round."""

    def calls_per_round(self, jobs):
        from repro import PlatformConfig, Turbine

        platform = Turbine.create(
            num_hosts=4, seed=5,
            config=PlatformConfig(num_shards=32, containers_per_host=2),
        )
        slo = platform.attach_slo()
        platform.start()
        for index in range(jobs):
            platform.provision(
                JobSpec(job_id=f"job-{index:02d}", input_category="cat",
                        task_count=1),
                partitions=4,
            )
        platform.run_for(minutes=40)  # start-up blips leave every window
        judged = platform.sli.evaluations
        calls = python_calls(slo.evaluate_once)
        assert platform.sli.evaluations - judged == jobs * len(slo.specs)
        assert not slo._last_bad, "the fleet must be quiet"
        return calls

    def test_a_quiet_judged_job_costs_at_most_22_python_calls(self):
        few, many = self.calls_per_round(10), self.calls_per_round(60)
        per_job = (many - few) / 50
        print(f"python calls per quiet judged job: {per_job:.1f}")
        assert per_job <= 22


class TestFootprint:
    """What the ledger buys: bytes of SLO bookkeeping per judged (job,
    round) — one 8-byte round time and a byte per spec, where a 0/1
    series per (job, SLO) cost five 16-byte samples and its batch."""

    def test_a_judged_job_round_costs_at_most_16_bytes(self, monkeypatch):
        import tracemalloc

        jobs, rounds = 200, 400
        engine = Engine(seed=1)
        service = JobService(JobStore())
        # A short platform retention keeps the fed series at a steady size.
        monkeypatch.setattr(repro.metrics.store, "DEFAULT_RETENTION", 600.0)
        metrics = MetricStore()
        tracker = SloTracker(engine, SliEvaluator(service, metrics))
        job_ids = [f"job-{index:03d}" for index in range(jobs)]
        for job_id in job_ids:
            service.provision(
                JobSpec(job_id=job_id, input_category="cat", task_count=2)
            )

        def one_round():
            engine.run_for(INTERVAL)
            for job_id in job_ids:
                metrics.record_row(
                    job_id, engine.now,
                    ("time_lagged", "processing_rate_mb", "running_tasks"),
                    (5.0, 2.0, 2.0),
                )
            tracker.evaluate_once()

        for __ in range(10):  # every ledger, view and fed series exists
            one_round()
        # Everything allocated under the tracker's own frames.
        inside = [tracemalloc.Filter(True, repro.obs.slo.__file__, all_frames=True)]
        tracemalloc.start(25)
        try:
            before = tracemalloc.take_snapshot().filter_traces(inside)
            for __ in range(rounds):
                one_round()
            after = tracemalloc.take_snapshot().filter_traces(inside)
        finally:
            tracemalloc.stop()
        assert not tracker._last_bad, "the fleet must be quiet"
        grown = sum(stat.size_diff for stat in after.compare_to(before, "filename"))
        per_row = grown / (jobs * rounds)
        print(f"SLO bookkeeping bytes per judged (job, round): {per_row:.1f}")
        assert per_row <= 16
