"""Property test: dirty-set incremental sync ≡ full-scan sync.

Two worlds run the *same* store mutations and the *same* pre-drawn
actuator failure schedule: world A syncs incrementally from the Job
Store's change feed (full scans effectively disabled), world B rescans
the whole fleet every round. After every round the two worlds must agree
on every report field that describes decisions (what synced, what
failed, what was quarantined) and on the stores' full contents; at the
end, after chaos stops, both must converge to identical running configs.

This is the safety argument for shipping the incremental path as the
default: any mutation the change feed missed would show up here as a
divergence between the worlds.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

import repro.jobs.syncer
from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore, StateSyncer
from repro.testing import ChaoticActuator, NullActuator
from repro.testing.reference import FullScanSyncer
from repro.types import JobState
from tests.tasks.helpers import python_calls

NUM_JOBS = 3
#: Effectively "never full-scan" — forces the pure incremental path
#: (round 0 is always a full scan by design; see StateSyncer).
NO_FULL_SCANS = 10**9


def full_scans_every(rounds):
    """Patch the syncer's safety-net period (``FULL_SCAN_INTERVAL``)."""
    return mock.patch.object(repro.jobs.syncer, "FULL_SCAN_INTERVAL", rounds)


def build_world(incremental, failure_plan, num_jobs=NUM_JOBS):
    store = JobStore()
    service = JobService(store)
    actuator = ChaoticActuator(list(failure_plan))
    syncer = (StateSyncer if incremental else FullScanSyncer)(store, actuator)
    for index in range(num_jobs):
        service.provision(JobSpec(job_id=f"job-{index}", input_category="cat"))
    return store, service, actuator, syncer


def apply_op(op, store, service):
    """Apply one mutation; both worlds receive identical op streams."""
    kind = op[0]
    if kind == "patch":
        __, index, level, task_count = op
        job_id = f"job-{index}"
        if store.exists(job_id) and store.state_of(job_id) != JobState.QUARANTINED:
            service.patch(job_id, level, {"task_count": task_count})
    elif kind == "patch_simple":
        __, index, version = op
        job_id = f"job-{index}"
        if store.exists(job_id) and store.state_of(job_id) != JobState.QUARANTINED:
            service.patch(
                job_id, ConfigLevel.PROVISIONER,
                {"package": {"name": "engine", "version": f"v{version}"}},
            )
    elif kind == "bump":
        # External running-config invalidation (the Capacity Manager's
        # force-resync pattern) — must wake the incremental syncer too.
        __, index = op
        job_id = f"job-{index}"
        if store.exists(job_id):
            store.commit_running(job_id, {})
    elif kind == "deprovision":
        __, index = op
        job_id = f"job-{index}"
        if store.exists(job_id):
            service.deprovision(job_id)
    elif kind == "provision":
        __, index = op
        job_id = f"job-{index}"
        if not store.exists(job_id):
            service.provision(JobSpec(job_id=job_id, input_category="cat"))
    elif kind == "release":
        __, index = op
        job_id = f"job-{index}"
        if store.exists(job_id) and store.state_of(job_id) == JobState.QUARANTINED:
            return "release"
    return None


def semantic_fields(report):
    return (
        report.simple_synced,
        report.complex_synced,
        report.failed,
        report.quarantined,
    )


operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("patch"),
            st.integers(0, NUM_JOBS - 1),
            st.sampled_from(
                [ConfigLevel.PROVISIONER, ConfigLevel.SCALER, ConfigLevel.ONCALL]
            ),
            st.integers(1, 12),
        ),
        st.tuples(
            st.just("patch_simple"),
            st.integers(0, NUM_JOBS - 1),
            st.integers(1, 9),
        ),
        st.tuples(st.just("bump"), st.integers(0, NUM_JOBS - 1)),
        st.tuples(st.just("deprovision"), st.integers(0, NUM_JOBS - 1)),
        st.tuples(st.just("provision"), st.integers(0, NUM_JOBS + 1)),
        st.tuples(st.just("release"), st.integers(0, NUM_JOBS - 1)),
    ),
    min_size=1,
    max_size=14,
)
failures = st.lists(st.booleans(), min_size=0, max_size=60)


@settings(max_examples=60, deadline=None)
@given(ops=operations, failure_plan=failures)
@full_scans_every(NO_FULL_SCANS)
def test_incremental_equals_full_scan(ops, failure_plan):
    store_a, service_a, actuator_a, syncer_a = build_world(True, failure_plan)
    store_b, service_b, actuator_b, syncer_b = build_world(False, failure_plan)

    for op in ops:
        result_a = apply_op(op, store_a, service_a)
        result_b = apply_op(op, store_b, service_b)
        assert result_a == result_b  # both worlds saw the same guard state
        if result_a == "release":
            syncer_a.release_quarantine(f"job-{op[1]}")
            syncer_b.release_quarantine(f"job-{op[1]}")
        report_a = syncer_a.sync_once()
        report_b = syncer_b.sync_once()
        assert semantic_fields(report_a) == semantic_fields(report_b)
        assert store_a.dump_snapshot() == store_b.dump_snapshot()

    # Chaos over: both worlds must converge to the same fixed point.
    actuator_a.failing = False
    actuator_b.failing = False
    for __ in range(2):
        report_a = syncer_a.sync_once()
        report_b = syncer_b.sync_once()
        assert semantic_fields(report_a) == semantic_fields(report_b)
    assert store_a.dump_snapshot() == store_b.dump_snapshot()
    for job_id in store_a.job_ids():
        if store_a.state_of(job_id) == JobState.QUARANTINED:
            continue
        assert (
            store_a.read_running(job_id).config
            == store_a.merged_expected(job_id)
        )


@settings(max_examples=25, deadline=None)
@given(ops=operations, failure_plan=failures)
@full_scans_every(2)
def test_periodic_full_scans_change_nothing(ops, failure_plan):
    """With a short safety-net interval, full scans interleave with
    incremental rounds — outcomes must still match the full-scan world."""
    store_a, service_a, actuator_a, syncer_a = build_world(True, failure_plan)
    store_b, service_b, actuator_b, syncer_b = build_world(False, failure_plan)

    for op in ops:
        result_a = apply_op(op, store_a, service_a)
        result_b = apply_op(op, store_b, service_b)
        assert result_a == result_b
        if result_a == "release":
            syncer_a.release_quarantine(f"job-{op[1]}")
            syncer_b.release_quarantine(f"job-{op[1]}")
        report_a = syncer_a.sync_once()
        report_b = syncer_b.sync_once()
        assert semantic_fields(report_a) == semantic_fields(report_b)
        assert store_a.dump_snapshot() == store_b.dump_snapshot()


def test_a_package_push_to_every_seventh_of_two_thousand_jobs():
    """The same property at fleet scale, on one input: a converged fleet
    of 2 000 jobs, a package push to every seventh, one round."""
    worlds = [build_world(incremental, [], num_jobs=2_000)
              for incremental in (True, False)]
    for store, service, __, syncer in worlds:
        syncer.sync_once()
        for index in range(0, 2_000, 7):
            apply_op(("patch_simple", index, 31), store, service)
    (store_a, __, ___, syncer_a), (store_b, __, ___, syncer_b) = worlds
    report_a = syncer_a.sync_once()
    report_b = syncer_b.sync_once()
    assert len(report_a.simple_synced) == 286
    assert semantic_fields(report_a) == semantic_fields(report_b)
    assert store_a.dump_snapshot() == store_b.dump_snapshot()


class GCActuator(NullActuator):
    """Knows cluster-side jobs, so the syncer's GC sweep has work to do."""

    def __init__(self):
        self.cluster_jobs = set()
        self.fail_stops = 0

    def known_job_ids(self):
        return sorted(self.cluster_jobs)

    def start_tasks(self, job_id, count, config):
        self.cluster_jobs.add(job_id)

    def stop_tasks(self, job_id):
        if self.fail_stops > 0:
            self.fail_stops -= 1
            raise RuntimeError("stop failed")
        self.cluster_jobs.discard(job_id)


class TestIncrementalRounds:
    """Deterministic spot checks of the dirty-set bookkeeping."""

    def make(self, num_jobs=5):
        store = JobStore()
        service = JobService(store)
        actuator = GCActuator()
        syncer = StateSyncer(store, actuator)
        for index in range(num_jobs):
            service.provision(
                JobSpec(job_id=f"job-{index}", input_category="cat")
            )
        return store, service, actuator, syncer

    def test_first_round_is_a_full_scan(self):
        __, ___, ____, syncer = self.make()
        report = syncer.sync_once()
        assert report.full_scan
        assert report.examined == 5

    def test_quiescent_round_examines_nothing(self):
        __, ___, ____, syncer = self.make()
        syncer.sync_once()
        report = syncer.sync_once()
        assert not report.full_scan
        assert report.examined == 0
        assert report.total_synced == 0

    def test_single_change_examines_one_job(self):
        __, service, ____, syncer = self.make()
        syncer.sync_once()
        service.patch(
            "job-2", ConfigLevel.PROVISIONER,
            {"package": {"name": "engine", "version": "v2"}},
        )
        report = syncer.sync_once()
        assert not report.full_scan
        assert report.examined == 1
        assert report.simple_synced == ["job-2"]

    def test_deleted_job_is_garbage_collected_incrementally(self):
        store, service, actuator, syncer = self.make()
        syncer.sync_once()
        assert "job-1" in actuator.cluster_jobs
        service.deprovision("job-1")
        report = syncer.sync_once()
        assert not report.full_scan
        assert report.simple_synced == ["job-1"]
        assert "job-1" not in actuator.cluster_jobs

    def test_failed_gc_is_retried_next_incremental_round(self):
        store, service, actuator, syncer = self.make()
        syncer.sync_once()
        service.deprovision("job-1")
        actuator.fail_stops = 1
        report = syncer.sync_once()
        assert report.failed == ["job-1"]
        # No new feed entry for job-1, yet the retry set carries it over.
        report = syncer.sync_once()
        assert not report.full_scan
        assert report.simple_synced == ["job-1"]
        assert "job-1" not in actuator.cluster_jobs

    def test_failed_plan_is_retried_via_dirty_set(self):
        store, service, actuator, syncer = self.make(num_jobs=1)
        syncer.sync_once()
        service.patch(
            "job-0", ConfigLevel.PROVISIONER,
            {"package": {"name": "engine", "version": "v2"}},
        )
        original = actuator.apply_settings
        calls = {"n": 0}

        def flaky(job_id, config):
            if calls["n"] == 0:
                calls["n"] += 1
                raise RuntimeError("boom")
            return original(job_id, config)

        actuator.apply_settings = flaky
        report = syncer.sync_once()
        assert report.failed == ["job-0"]
        report = syncer.sync_once()
        assert not report.full_scan
        assert report.simple_synced == ["job-0"]


class TestRoundCost:
    """What the dirty set buys, independent of the hardware: a round's
    work follows the change feed, not the fleet. A quiet round examines
    no job and a one-job change examines that one, for the same number
    of Python calls at two fleet sizes."""

    SIZES = (250, 1_000)

    @staticmethod
    def converged(num_jobs):
        store = JobStore()
        service = JobService(store)
        for index in range(num_jobs):
            service.provision(
                JobSpec(job_id=f"job-{index:05d}", input_category="cat")
            )
        syncer = StateSyncer(store, NullActuator())
        syncer.sync_once()  # the first round is a full scan that plans all
        return service, syncer

    @staticmethod
    def measured_round(syncer):
        reports = []
        calls = python_calls(lambda: reports.append(syncer.sync_once()))
        return reports[0], calls

    def test_a_quiet_round_examines_nothing_at_any_fleet_size(self):
        costs = []
        for num_jobs in self.SIZES:
            report, calls = self.measured_round(self.converged(num_jobs)[1])
            assert report.total_synced == 0
            costs.append((report.examined, calls))
        assert costs[0] == costs[1]
        assert costs[0][0] == 0

    def test_a_one_job_change_examines_that_job_at_any_fleet_size(self):
        costs = []
        for num_jobs in self.SIZES:
            service, syncer = self.converged(num_jobs)
            changed = f"job-{num_jobs // 2:05d}"
            service.patch(
                changed, ConfigLevel.PROVISIONER,
                {"package": {"name": "stream_engine", "version": "2.0"}},
            )
            report, calls = self.measured_round(syncer)
            assert report.simple_synced == [changed]
            costs.append((report.examined, calls))
        assert costs[0] == costs[1]
        assert costs[0][0] == 1
