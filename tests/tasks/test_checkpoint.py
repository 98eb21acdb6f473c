"""Unit + property tests for the durable checkpoint plane.

The encode/decode pair must be a lossless round trip (canonical JSON, so
equal snapshots are equal bytes), decode must fail *typed* on anything
malformed, and restore must never crash: a checkpoint log trimmed past
the retention horizon falls back to the backlog horizon with an explicit
``checkpoint-fallback`` event instead of raising.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServiceUnavailableError
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine
from repro.tasks.checkpoint import (
    CheckpointDecodeError,
    CheckpointPlane,
    TaskCheckpoint,
    checkpoint_log_name,
)

offsets_maps = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-.", min_size=1,
        max_size=12,
    ),
    st.floats(min_value=0.0, max_value=1e9, allow_nan=False),
    max_size=8,
)
snapshots = st.builds(
    TaskCheckpoint,
    job_id=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-/", min_size=1,
        max_size=20,
    ),
    time=st.floats(min_value=0.0, max_value=1e8, allow_nan=False),
    offsets=offsets_maps,
    progress_mb=st.floats(min_value=0.0, max_value=1e12, allow_nan=False),
)


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(snapshot=snapshots)
    def test_decode_inverts_encode(self, snapshot):
        assert TaskCheckpoint.decode(snapshot.encode()) == snapshot

    @settings(max_examples=100, deadline=None)
    @given(snapshot=snapshots)
    def test_encode_is_canonical(self, snapshot):
        """Equal snapshots are equal bytes, and encoding is a fixed point
        under a decode round trip — the property the replicated command
        log's byte-compare audits rely on."""
        twin = TaskCheckpoint(
            job_id=snapshot.job_id, time=snapshot.time,
            offsets=dict(reversed(list(snapshot.offsets.items()))),
            progress_mb=snapshot.progress_mb,
        )
        assert twin.encode() == snapshot.encode()
        assert TaskCheckpoint.decode(snapshot.encode()).encode() == (
            snapshot.encode()
        )

    @settings(max_examples=200, deadline=None)
    @given(payload=st.text(max_size=80))
    def test_decode_arbitrary_text_never_raises_untyped(self, payload):
        """Garbage decodes to a snapshot or CheckpointDecodeError — never
        a stray KeyError/TypeError from deep inside restore."""
        try:
            TaskCheckpoint.decode(payload)
        except CheckpointDecodeError:
            pass

    @pytest.mark.parametrize("payload", [
        "not json at all",
        "[1, 2, 3]",
        '"a bare string"',
        json.dumps({"job_id": "j", "time": 1.0}),  # missing keys
        json.dumps({"job_id": "j", "time": 1.0, "offsets": "nope",
                    "progress_mb": 0.0}),
        json.dumps({"job_id": "j", "time": "soon", "offsets": {},
                    "progress_mb": 0.0}),
        json.dumps({"job_id": "j", "time": 1.0,
                    "offsets": {"p": [1, 2]}, "progress_mb": 0.0}),
    ])
    def test_decode_rejects_malformed_payloads(self, payload):
        with pytest.raises(CheckpointDecodeError):
            TaskCheckpoint.decode(payload)


class StubTaskService:
    """Just enough Task Service for the plane's periodic tick."""

    def __init__(self, job_ids=()):
        self.jobs = list(job_ids)
        self.available = True

    def job_ids(self):
        if not self.available:
            raise ServiceUnavailableError("task service down")
        return list(self.jobs)


def build_plane(jobs=("job",), **kwargs):
    engine = Engine(seed=1)
    scribe = ScribeBus()
    service = StubTaskService(jobs)
    plane = CheckpointPlane(engine, scribe, service, **kwargs)
    return engine, scribe, service, plane


def commit(scribe, job_id, offsets):
    for partition_id, offset in offsets.items():
        scribe.checkpoints.commit(job_id, partition_id, offset)


class TestPlane:
    def test_snapshot_then_wipe_then_restore(self):
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", {"p0": 10.0, "p1": 20.0})
        plane.snapshot_job("job")
        assert plane.appends == 1
        scribe.checkpoints.drop_job("job")  # the checkpoint-wipe fault
        plane.snapshot_job("job")  # next tick notices the regression
        assert plane.restores == 1
        assert scribe.checkpoints.snapshot("job") == {"p0": 10.0, "p1": 20.0}
        (event,) = list(plane.events)
        assert event.kind == "checkpoint-restore"
        assert "rolled 2 partitions forward" in event.detail

    def test_on_task_start_rolls_forward_after_wipe(self):
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", {"p0": 10.0})
        plane.snapshot_job("job")
        scribe.checkpoints.drop_job("job")
        assert plane.on_task_start("job") == 1
        assert scribe.checkpoints.get("job", "p0") == 10.0

    def test_on_task_start_without_log_is_a_noop(self):
        engine, scribe, service, plane = build_plane()
        assert plane.on_task_start("never-checkpointed") == 0
        assert plane.restores == 0
        assert list(plane.events) == []

    def test_fault_free_progress_appends_but_stays_silent(self):
        engine, scribe, service, plane = build_plane()
        for head in (5.0, 10.0, 15.0):
            commit(scribe, "job", {"p0": head})
            plane.snapshot_job("job")
        assert plane.appends == 3
        assert plane.restores == 0
        assert list(plane.events) == []

    def test_unchanged_cursors_append_nothing(self):
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", {"p0": 5.0})
        plane.snapshot_job("job")
        plane.snapshot_job("job")  # same offsets: no new record
        assert plane.appends == 1

    def test_trimmed_log_falls_back_to_backlog_horizon(self):
        """The satellite invariant: log trimmed past retention ⇒ loud,
        typed fallback — not a crash, and the job keeps checkpointing."""
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", {"p0": 10.0})
        plane.snapshot_job("job")
        log = scribe.logs[checkpoint_log_name("job")]
        log.trim(log.head_index)  # retention horizon passes everything
        scribe.checkpoints.drop_job("job")
        plane.snapshot_job("job")
        assert plane.fallbacks == 1
        (event,) = list(plane.events)
        assert event.kind == "checkpoint-fallback"
        assert "backlog horizon" in event.detail
        # The fallback resets the high-water mark, so the job's next
        # progress checkpoints cleanly instead of re-fallbacking forever.
        commit(scribe, "job", {"p0": 2.0})
        plane.snapshot_job("job")
        assert plane.appends == 2
        assert plane.fallbacks == 1

    def test_corrupt_newest_record_degrades_to_noop_restore(self):
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", {"p0": 10.0})
        plane.snapshot_job("job")
        log = scribe.logs[checkpoint_log_name("job")]
        log.trim(log.head_index)  # the corrupt record is all that is left
        log.append("corrupt{{{")
        scribe.checkpoints.drop_job("job")
        assert plane.on_task_start("job") == 0  # typed decode, no crash

    def test_corrupt_newest_record_restores_the_newest_decodable_one(self):
        """One undecodable record must not throw away the snapshots
        before it: the restore walks back to the newest one that
        decodes."""
        engine, scribe, service, plane = build_plane()
        for head in (10.0, 20.0):
            commit(scribe, "job", {"p0": head})
            plane.snapshot_job("job")
        scribe.logs[checkpoint_log_name("job")].append("{corrupt")
        scribe.checkpoints.drop_job("job")
        plane.snapshot_job("job")
        assert (plane.restores, plane.fallbacks) == (1, 0)
        assert scribe.checkpoints.snapshot("job") == {"p0": 20.0}

    def test_no_decodable_record_falls_back_and_says_so(self):
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", {"p0": 10.0})
        plane.snapshot_job("job")
        log = scribe.logs[checkpoint_log_name("job")]
        log.trim(log.head_index)
        log.append("{corrupt")
        scribe.checkpoints.drop_job("job")
        plane.snapshot_job("job")
        assert (plane.restores, plane.fallbacks) == (0, 1)
        (event,) = list(plane.events)
        assert event.kind == "checkpoint-fallback"
        assert "no retained checkpoint record decodes" in event.detail
        assert "backlog horizon" in event.detail

    def test_retention_bounds_the_log(self):
        engine, scribe, service, plane = build_plane(retention=4)
        for head in range(1, 11):
            commit(scribe, "job", {"p0": float(head)})
            plane.snapshot_job("job")
        log = scribe.logs[checkpoint_log_name("job")]
        assert len(log) == 4
        assert plane.appends == 10

    def test_timer_snapshots_and_outage_skips_round(self):
        engine, scribe, service, plane = build_plane(interval=30.0)
        plane.start()
        commit(scribe, "job", {"p0": 5.0})
        engine.run_for(60.0)
        assert plane.appends == 1  # one change, one record
        service.available = False
        commit(scribe, "job", {"p0": 9.0})
        engine.run_for(60.0)
        assert plane.appends == 1  # outage: rounds skipped, no crash
        service.available = True
        engine.run_for(60.0)
        assert plane.appends == 2

    @settings(max_examples=60, deadline=None)
    @given(
        offsets=st.dictionaries(
            st.sampled_from(["p0", "p1", "p2", "p3"]),
            st.floats(min_value=0.1, max_value=1e6, allow_nan=False),
            min_size=1, max_size=4,
        ),
        trim_everything=st.booleans(),
    )
    def test_wipe_recovery_restores_or_falls_back_never_raises(
        self, offsets, trim_everything
    ):
        """For any committed offsets, wipe + (maybe) trim ⇒ the next
        snapshot round either rolls the cursors back to the snapshot or
        records a fallback — exactly one of the two, and never an
        exception."""
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", offsets)
        plane.snapshot_job("job")
        log = scribe.logs[checkpoint_log_name("job")]
        if trim_everything:
            log.trim(log.head_index)
        scribe.checkpoints.drop_job("job")
        plane.snapshot_job("job")
        if trim_everything:
            assert (plane.restores, plane.fallbacks) == (0, 1)
            assert scribe.checkpoints.snapshot("job") == {}
        else:
            assert (plane.restores, plane.fallbacks) == (1, 0)
            assert scribe.checkpoints.snapshot("job") == offsets
