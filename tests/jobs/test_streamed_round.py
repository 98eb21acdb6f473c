"""The State Syncer's streamed round (DESIGN.md, "State Syncer").

A round plans, runs and commits one simple plan at a time and keeps only
the complex plans for after them. What a round does — its trace events
(kind, span, parent, detail), its :class:`SyncReport`, the actuator calls
and the store it leaves — must be what a round that planned every job
first did. The expected values below were recorded by running these
scenarios on the plan-everything-first syncer: a mixed round, a plan
that fails until its job is quarantined, and a Job Store outage that
begins inside the k-th plan (whose unfinished jobs the next incremental
round syncs: the raise puts them back on the change feed). The drill goldens cannot stand in for them:
every ``sync-round`` they hold is complex-only.
"""

import hashlib
import tracemalloc

import pytest

from repro.errors import ServiceUnavailableError
from repro.jobs import ConfigLevel, JobService, JobSpec, JobStore, StateSyncer
from repro.jobs.syncer import FULL_SCAN_INTERVAL
from repro.obs.trace import SLOT_SYNC, Tracer
from repro.testing import NullActuator, RecordingActuator

PACKAGE = {"package": {"name": "stream_engine", "version": "2.0"}}


class ScriptedActuator(RecordingActuator):
    """Records each call as a trace event under the current plan, and can
    fail the calls of chosen jobs or fail the Job Store at its k-th
    ``apply_settings`` / ``start_tasks`` call."""

    def __init__(self, tracer, store):
        super().__init__()
        self.tracer = tracer
        self.store = store
        self.failing_jobs = set()
        self.store_fails_at = None
        self.plan_calls = 0

    def _act(self, op, job_id):
        self.tracer.record(
            "actuator", op, job_id=job_id,
            parent=self.tracer.peek_context(job_id, SLOT_SYNC),
        )
        if op in ("apply_settings", "start_tasks"):
            if self.plan_calls == self.store_fails_at:
                self.store.fail()
            self.plan_calls += 1
        if job_id in self.failing_jobs:
            raise RuntimeError(f"injected failure in {op} of {job_id}")

    def apply_settings(self, job_id, config):
        self._act("apply_settings", job_id)
        super().apply_settings(job_id, config)

    def stop_tasks(self, job_id):
        self._act("stop_tasks", job_id)
        super().stop_tasks(job_id)

    def redistribute_checkpoints(self, job_id, old, new):
        self._act("redistribute_checkpoints", job_id)
        super().redistribute_checkpoints(job_id, old, new)

    def start_tasks(self, job_id, count, config):
        self._act("start_tasks", job_id)
        super().start_tasks(job_id, count, config)


def world(count):
    clock = [0.0]
    tracer = Tracer(clock=lambda: clock[0], enabled=True)
    store = JobStore()
    service = JobService(store, tracer=tracer)
    actuator = ScriptedActuator(tracer, store)
    syncer = StateSyncer(store, actuator, tracer=tracer)
    for index in range(count):
        service.provision(JobSpec(
            job_id=f"job-{index}", input_category="cat", task_count=2,
        ))
    return clock, tracer, store, service, actuator, syncer


def events(tracer, start=0):
    """Each event from ``start`` on as one line: kind, span, parent, job
    and detail."""
    return [
        f"{event.kind} {event.span_id} {event.parent_id} {event.job_id} "
        f"{event.detail_str()}".rstrip()
        for event in tracer.events[start:]
    ]


def report_of(report):
    return (
        report.simple_synced, report.complex_synced, report.failed,
        report.quarantined, report.examined, report.full_scan, report.skipped,
    )


def digest(store):
    return hashlib.sha256(store.dump_snapshot().encode()).hexdigest()[:16]


def mixed_round():
    """Seven jobs: a package push to four, a parallelism change to two (one
    of them pushed too), two untouched; an incremental round, then a full
    scan over the converged fleet."""
    clock, tracer, store, service, actuator, syncer = world(7)
    syncer.sync_once()
    clock[0] = 30.0
    for job_id in ("job-0", "job-2", "job-3", "job-6"):
        service.patch(job_id, ConfigLevel.PROVISIONER, PACKAGE)
    service.patch("job-1", ConfigLevel.SCALER, {"task_count": 4})
    service.patch("job-3", ConfigLevel.SCALER, {"task_count": 3})
    actuator.calls.clear()
    start = len(tracer.events)
    report = syncer.sync_once()
    clock[0] = 60.0
    syncer._rounds_since_full = FULL_SCAN_INTERVAL
    rescan = syncer.sync_once()
    return (
        events(tracer, start), report_of(report), report_of(rescan),
        actuator.calls, digest(store),
        {job_id: store.read_running(job_id).version for job_id in store.job_ids()},
    )


def failing_plan():
    """Four jobs pushed each round; job-1's plan fails every time, so it is
    retried twice and quarantined on the third round."""
    clock, tracer, store, service, actuator, syncer = world(4)
    syncer.sync_once()
    actuator.failing_jobs.add("job-1")
    actuator.calls.clear()
    rounds = []
    for round_index in range(4):
        clock[0] = 30.0 * (round_index + 1)
        for job_id in ("job-0", "job-1", "job-2", "job-3"):
            service.patch(job_id, ConfigLevel.PROVISIONER, {
                "package": {"name": "stream_engine", "version": f"2.{round_index}"},
            })
        start = len(tracer.events)
        report = syncer.sync_once()
        rounds.append((report_of(report), events(tracer, start)))
    return (
        rounds, syncer.alerts, actuator.calls, digest(store),
        [syncer.failure_count(f"job-{i}") for i in range(4)],
    )


def outage_in_plan(k):
    """Five simple plans and one complex; the Job Store fails inside the
    k-th plan to run. Returns what the raise and the store left, then the
    reports of the first round after the store recovers and of a full
    scan after it."""
    clock, tracer, store, service, actuator, syncer = world(6)
    syncer.sync_once()
    clock[0] = 30.0
    for job_id in ("job-0", "job-1", "job-3", "job-4", "job-5"):
        service.patch(job_id, ConfigLevel.PROVISIONER, PACKAGE)
    service.patch("job-2", ConfigLevel.SCALER, {"task_count": 5})
    actuator.calls.clear()
    actuator.store_fails_at, actuator.plan_calls = k, 0
    start = len(tracer.events)
    with pytest.raises(ServiceUnavailableError) as raised:
        syncer.sync_once()
    # The aborted round's event counts the plans found before the raise,
    # where a round that planned everything first counted them all; its
    # other fields, and every other event, are compared.
    aborted = [
        line.split(" complex=")[0] if line.startswith("sync-round ") else line
        for line in events(tracer, start)
    ]
    store.recover()
    state = (
        str(raised.value), aborted, list(actuator.calls), digest(store),
        len(syncer.rounds), [syncer.failure_count(f"job-{i}") for i in range(6)],
    )
    clock[0] = 60.0
    start = len(tracer.events)
    after = syncer.sync_once()
    syncer._rounds_since_full = FULL_SCAN_INTERVAL
    rescan = syncer.sync_once()
    return (
        state, report_of(after), report_of(rescan), events(tracer, start),
        digest(store),
    )


def push_transient(count):
    """Bytes a package-push round over ``count`` jobs holds at its peak
    above what it leaves held (``tracemalloc``)."""
    store = JobStore()
    service = JobService(store)
    for index in range(count):
        service.provision(
            JobSpec(job_id=f"job-{index:06d}", input_category="cat")
        )
    syncer = StateSyncer(store, NullActuator())
    syncer.sync_once()
    for job_id in service.job_ids():
        service.patch(job_id, ConfigLevel.PROVISIONER, PACKAGE)
    tracemalloc.start()
    try:
        report = syncer.sync_once()
        end, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(report.simple_synced) == count
    return peak - end


# ----------------------------------------------------------------------
# Recorded on the syncer that planned a whole round before running it.
# ----------------------------------------------------------------------
MIXED_EVENTS = [
    "sync-round s000057 None None complex=2 simple=3",
    "sync-plan s000058 s000051 job-0 actions=['apply_settings'] complex=False",
    "apply_settings s000059 s000058 job-0",
    "sync-plan s000060 s000052 job-2 actions=['apply_settings'] complex=False",
    "apply_settings s000061 s000060 job-2",
    "sync-plan s000062 s000054 job-6 actions=['apply_settings'] complex=False",
    "apply_settings s000063 s000062 job-6",
    "sync-plan s000064 s000055 job-1 actions=['stop_old_tasks', "
    "'redistribute_checkpoints', 'start_new_tasks'] complex=True",
    "stop_tasks s000065 s000064 job-1",
    "redistribute_checkpoints s000066 s000064 job-1",
    "start_tasks s000067 s000064 job-1",
    "sync-plan s000068 s000056 job-3 actions=['stop_old_tasks', "
    "'redistribute_checkpoints', 'start_new_tasks'] complex=True",
    "stop_tasks s000069 s000068 job-3",
    "redistribute_checkpoints s000070 s000068 job-3",
    "start_tasks s000071 s000068 job-3",
]

MIXED_CALLS = [
    ("apply_settings", "job-0"), ("apply_settings", "job-2"),
    ("apply_settings", "job-6"),
    ("stop_tasks", "job-1"), ("redistribute_checkpoints", "job-1", 2, 4),
    ("start_tasks", "job-1", 4),
    ("stop_tasks", "job-3"), ("redistribute_checkpoints", "job-3", 2, 3),
    ("start_tasks", "job-3", 3),
]


def failing_round(number, quarantined=False):
    """The recorded events of round ``number`` (0-based) of
    :func:`failing_plan` while job-1 is still planned."""
    span = 34 + 14 * number
    writes = span - 4

    def s(offset):
        return f"s{span + offset:06d}"

    def plan(job_index, offset):
        return (
            f"sync-plan {s(offset)} s{writes + job_index:06d} job-{job_index} "
            "actions=['apply_settings'] complex=False"
        )

    error = "injected failure in apply_settings of job-1"
    lines = [
        f"sync-round {s(0)} None None complex=0 simple=4",
        plan(0, 1),
        f"apply_settings {s(2)} {s(1)} job-0",
        plan(1, 3),
        f"apply_settings {s(4)} {s(3)} job-1",
        f"sync-fail {s(5)} {s(3)} job-1 error={error}",
    ]
    shift = 0
    if quarantined:
        lines.append(
            f"job-quarantined {s(6)} {s(3)} job-1 failures=3 reason={error}"
        )
        shift = 1
    lines += [
        plan(2, 6 + shift),
        f"apply_settings {s(7 + shift)} {s(6 + shift)} job-2",
        plan(3, 8 + shift),
        f"apply_settings {s(9 + shift)} {s(8 + shift)} job-3",
    ]
    return lines


FAILING_LAST_ROUND = [
    "sync-round s000077 None None complex=0 simple=3",
    "sync-plan s000078 s000073 job-0 actions=['apply_settings'] complex=False",
    "apply_settings s000079 s000078 job-0",
    "sync-plan s000080 s000075 job-2 actions=['apply_settings'] complex=False",
    "apply_settings s000081 s000080 job-2",
    "sync-plan s000082 s000076 job-3 actions=['apply_settings'] complex=False",
    "apply_settings s000083 s000082 job-3",
]

#: sha256 (first 16 hex digits) of ``repr(outage_in_plan(k))``. What the
#: raise leaves (its events, the actions that ran, the store) is as
#: recorded on the plan-everything-first syncer; the two rounds after it
#: are those of a raising round that puts its unfinished jobs back on the
#: change feed.
OUTAGE_DIGESTS = {
    0: "17513a973b31ed67",
    1: "9346a02050e9db5c",
    2: "56ca3625e12c70d2",
    3: "75c51a26c10445dd",
    4: "780168f0bcad2a64",
    5: "3f596c8211d503fb",
}


class TestStreamedRound:
    def test_a_mixed_round_runs_and_traces_as_recorded(self):
        trace, report, rescan, calls, snapshot, versions = mixed_round()
        assert trace == MIXED_EVENTS
        assert report == (
            ["job-0", "job-2", "job-6"], ["job-1", "job-3"], [], [], 5,
            False, False,
        )
        assert rescan == ([], [], [], [], 7, True, False)
        assert calls == MIXED_CALLS
        assert snapshot == "4013cdf082f4fb84"
        assert versions == {
            "job-0": 2, "job-1": 2, "job-2": 2, "job-3": 2, "job-4": 1,
            "job-5": 1, "job-6": 2,
        }

    def test_a_failing_plan_is_retried_then_quarantined_as_recorded(self):
        rounds, alerts, calls, snapshot, failures = failing_plan()
        pushed = (["job-0", "job-2", "job-3"], [], ["job-1"], [], 4, False, False)
        assert [report for report, __ in rounds] == [
            pushed, pushed,
            (["job-0", "job-2", "job-3"], [], ["job-1"], ["job-1"], 4, False, False),
            (["job-0", "job-2", "job-3"], [], [], [], 4, False, False),
        ]
        assert [trace for __, trace in rounds] == [
            failing_round(0), failing_round(1),
            failing_round(2, quarantined=True), FAILING_LAST_ROUND,
        ]
        assert alerts == [(0.0, "job-1", "injected failure in apply_settings of job-1")]
        assert calls == [
            ("apply_settings", job_id)
            for __ in range(4) for job_id in ("job-0", "job-2", "job-3")
        ]
        assert snapshot == "11c83f2cd5b8d2f5"
        assert failures == [0, 3, 0, 0]

    @pytest.mark.parametrize("k", sorted(OUTAGE_DIGESTS))
    def test_a_store_outage_inside_the_kth_plan_leaves_what_was_recorded(self, k):
        observed = outage_in_plan(k)
        (message, __, calls, __, rounds, failures), after, rescan = observed[:3]
        assert message == "Job Store is unavailable"
        assert rounds == 1 and failures == [0] * 6  # no report, no failure
        # The raise put every job the round did not finish back on the
        # change feed: the next incremental round syncs the k-th plan's job,
        # every job after it and the complex plan still waiting, and a full
        # scan after it finds the fleet converged.
        simple = ["job-0", "job-1", "job-3", "job-4", "job-5"]
        assert after == (
            simple[k:], ["job-2"], [], [], len(simple[k:]) + 1, False, False
        )
        assert rescan == ([], [], [], [], 6, True, False)
        # The actions of the plans up to the k-th ran (the complex plan is
        # three); the k-th and later plans did not commit.
        assert len(calls) == (8 if k == 5 else k + 1)
        assert hashlib.sha256(repr(observed).encode()).hexdigest()[:16] == (
            OUTAGE_DIGESTS[k]
        )

    def test_a_push_rounds_transient_memory_does_not_grow_with_the_fleet(self):
        """The round holds one job's merged config at a time: its peak
        above what it leaves held grows by the candidate list's few bytes
        a job, where planning the whole push first held ≈ 3.4 KB a job."""
        small, large = push_transient(256), push_transient(2048)
        assert large - small <= (2048 - 256) * 64, (small, large)
