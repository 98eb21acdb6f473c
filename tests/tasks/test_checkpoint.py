"""Unit + property tests for the durable checkpoint plane.

The encode/decode pair must be a lossless round trip (packed doubles, so
every offset comes back bit for bit; sorted ids, so equal snapshots are
equal text), decode must fail *typed* on anything malformed, and restore
must never crash: a checkpoint log trimmed past the retention horizon
falls back to the backlog horizon with an explicit
``checkpoint-fallback`` event instead of raising.
"""

import json
import math
import struct
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.tasks.checkpoint
from repro.errors import ServiceUnavailableError
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine
from repro.tasks.checkpoint import (
    CheckpointDecodeError,
    CheckpointPlane,
    TaskCheckpoint,
    checkpoint_log_name,
)

#: Doubles the codec must carry bit for bit: signed zero, the smallest
#: subnormal and a larger one, the last exact integer, a huge value.
EDGE_DOUBLES = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3, 2.0**53, 1e308]

doubles = st.one_of(
    st.sampled_from(EDGE_DOUBLES),
    st.floats(min_value=-0.0, allow_nan=False, allow_infinity=False),
)
offsets_maps = st.dictionaries(
    st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-./ \"é", min_size=1,
        max_size=12,
    ),
    doubles,
    max_size=8,
)
snapshots = st.builds(
    TaskCheckpoint,
    job_id=st.text(
        alphabet="abcdefghijklmnopqrstuvwxyz0123456789-/ \"", min_size=1,
        max_size=20,
    ),
    time=doubles,
    offsets=offsets_maps,
)


def bits(value):
    return struct.pack("<d", value)


def assert_bit_identical(decoded, snapshot):
    assert decoded.job_id == snapshot.job_id
    assert bits(decoded.time) == bits(snapshot.time)
    assert decoded.offsets.keys() == snapshot.offsets.keys()
    for partition_id, offset in snapshot.offsets.items():
        assert bits(decoded.offsets[partition_id]) == bits(offset)


def seal(body):
    """``body`` under a correct CRC, so a rejection comes from another check."""
    return f"{zlib.crc32(body.encode()):08x}{body}"


def hex_doubles(*values):
    return struct.pack(f"<{len(values)}d", *values).hex()


class TestRoundTrip:
    @settings(max_examples=200, deadline=None)
    @given(snapshot=snapshots)
    def test_decode_inverts_encode(self, snapshot):
        """Bit for bit: ``-0.0`` stays negative, subnormals survive."""
        assert_bit_identical(TaskCheckpoint.decode(snapshot.encode()), snapshot)

    @pytest.mark.parametrize("value", EDGE_DOUBLES)
    def test_edge_doubles_round_trip_bit_for_bit(self, value):
        snapshot = TaskCheckpoint("j", value, {"p0": value, "p1": 1.5})
        assert_bit_identical(TaskCheckpoint.decode(snapshot.encode()), snapshot)

    @settings(max_examples=100, deadline=None)
    @given(snapshot=snapshots)
    def test_encode_is_canonical(self, snapshot):
        """Equal snapshots are equal text whatever the dict insertion
        order, and encoding is a fixed point under a decode round trip —
        the property the replicated command log's byte-compare audits
        rely on."""
        twin = TaskCheckpoint(
            job_id=snapshot.job_id, time=snapshot.time,
            offsets=dict(reversed(list(snapshot.offsets.items()))),
        )
        assert twin.encode() == snapshot.encode()
        assert TaskCheckpoint.decode(snapshot.encode()).encode() == (
            snapshot.encode()
        )

    @settings(max_examples=200, deadline=None)
    @given(payload=st.text(max_size=80), sealed=st.booleans())
    def test_decode_arbitrary_text_never_raises_untyped(self, payload, sealed):
        """Garbage decodes to a snapshot or CheckpointDecodeError — never
        a stray KeyError/TypeError from deep inside restore. Half the
        examples carry a correct CRC, so the CRC alone cannot reject them."""
        try:
            TaskCheckpoint.decode(seal(payload) if sealed else payload)
        except CheckpointDecodeError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(snapshot=snapshots, data=st.data())
    def test_every_single_character_change_is_caught(self, snapshot, data):
        """A flipped character in a stored record decodes to the identical
        snapshot or raises CheckpointDecodeError: it never restores
        different offsets."""
        record = snapshot.encode()
        index = data.draw(st.integers(0, len(record) - 1))
        char = data.draw(st.characters())
        mutated = record[:index] + char + record[index + 1:]
        try:
            decoded = TaskCheckpoint.decode(mutated)
        except CheckpointDecodeError:
            return
        assert_bit_identical(decoded, snapshot)

    def test_every_printable_substitution_in_one_record_is_caught(self):
        snapshot = TaskCheckpoint(
            "chaos/job-0", 270.0, {"cat-0/0": 32.5, "cat-0/1": 5e-324},
        )
        record = snapshot.encode()
        checked = 0
        for index in range(len(record)):
            for code in range(32, 127):
                mutated = record[:index] + chr(code) + record[index + 1:]
                if mutated == record:
                    continue
                with pytest.raises(CheckpointDecodeError):
                    TaskCheckpoint.decode(mutated)
                checked += 1
        assert checked == len(record) * 94

    @pytest.mark.parametrize("time, offset", [
        (1.0, math.inf), (1.0, -math.inf), (1.0, math.nan), (1.0, -1.0),
        (math.inf, 1.0), (math.nan, 1.0), (-1.0, 1.0),
    ])
    def test_decode_rejects_non_finite_or_negative_values(self, time, offset):
        """A well-sealed record can still hold a value no cursor may take;
        committing it would put a partition's cursor past its head."""
        record = TaskCheckpoint("j", time, {"p0": 1.0, "p1": offset}).encode()
        with pytest.raises(CheckpointDecodeError, match="non-finite"):
            TaskCheckpoint.decode(record)

    @pytest.mark.parametrize("payload", [
        "not json at all",
        "[1, 2, 3]",
        '"a bare string"',
        "",
        # A snapshot in the retired JSON format: there is no old reader.
        json.dumps({"job_id": "j", "time": 1.0, "offsets": {"p": 1.0},
                    "progress_mb": 1.0}),
        seal('["j"] ' + hex_doubles(1.0)),  # no partition-id list
        seal('["j","nope"] ' + hex_doubles(1.0)),  # ids not a list
        seal('["j",[1]] ' + hex_doubles(1.0, 2.0)),  # id not a string
        seal('{"job_id":"j"} ' + hex_doubles(1.0)),  # not a pair
        seal('["j",[]] soon'),  # doubles not hex
        seal('["j",["p"]] ' + hex_doubles(1.0)),  # one double short
        seal('["j",["p"]] ' + hex_doubles(1.0, 2.0, 3.0)),  # one too many
        seal('["j",["q","p"]] ' + hex_doubles(1.0, 2.0, 3.0)),  # unsorted
        seal('["j",["p","p"]] ' + hex_doubles(1.0, 2.0, 3.0)),  # duplicate
        seal('["j", ["p"]] ' + hex_doubles(1.0, 2.0)),  # not canonical JSON
        seal('["j",["p"]] ' + hex_doubles(1.0, 2.0).upper()),  # not lowercase
        seal('["j",["p"]] ' + hex_doubles(1.0, 2.0)[:-2] + " 40"),  # spaced
        seal('["j",["p"]]' + hex_doubles(1.0, 2.0)),  # no separator
        "0" * 8 + '["j",["p"]] ' + hex_doubles(1.0, 2.0),  # wrong CRC
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


def build_plane(jobs=("job",)):
    engine = Engine(seed=1)
    scribe = ScribeBus()
    service = StubTaskService(jobs)
    plane = CheckpointPlane(engine, scribe, service)
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

    def test_records_are_the_canonical_encoding(self):
        """One codec: the plane's record of a snapshot is exactly what
        :meth:`TaskCheckpoint.encode` gives for it."""
        engine, scribe, service, plane = build_plane()
        engine.run_for(45.0)
        commit(scribe, "job", {"p1": 7.25, "p0": 2.0**53})
        plane.snapshot_job("job")
        ((__, record),) = scribe.logs[checkpoint_log_name("job")].read_from(0)
        assert record == TaskCheckpoint(
            "job", 45.0, {"p0": 2.0**53, "p1": 7.25}
        ).encode()

    def test_record_header_is_built_once_per_partition_id_set(self):
        engine, scribe, service, plane = build_plane()
        commit(scribe, "job", {"p0": 1.0, "p1": 1.0})
        plane.snapshot_job("job")
        header = plane._headers["job"]
        commit(scribe, "job", {"p0": 2.0})
        plane.snapshot_job("job")
        assert plane._headers["job"] is header  # same ids: reused
        commit(scribe, "job", {"p2": 3.0})
        plane.snapshot_job("job")
        assert plane._headers["job"].ids == ["p0", "p1", "p2"]
        log = scribe.logs[checkpoint_log_name("job")]
        assert [
            TaskCheckpoint.decode(record).offsets
            for __, record in log.read_from(0)
        ] == [
            {"p0": 1.0, "p1": 1.0},
            {"p0": 2.0, "p1": 1.0},
            {"p0": 2.0, "p1": 1.0, "p2": 3.0},
        ]
        plane.forget_job("job")
        assert "job" not in plane._headers

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

    def test_retention_bounds_the_log(self, monkeypatch):
        monkeypatch.setattr(repro.tasks.checkpoint, "CHECKPOINT_RETENTION", 4)
        engine, scribe, service, plane = build_plane()
        for head in range(1, 11):
            commit(scribe, "job", {"p0": float(head)})
            plane.snapshot_job("job")
        log = scribe.logs[checkpoint_log_name("job")]
        assert len(log) == 4
        assert plane.appends == 10

    def test_timer_snapshots_and_outage_skips_round(self):
        assert repro.tasks.checkpoint.CHECKPOINT_INTERVAL == 30.0
        engine, scribe, service, plane = build_plane()
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


class TestCorruptRecordOnAPlatform:
    def test_sealed_infinite_offset_is_skipped_not_committed(self):
        """A record that decodes but holds an offset no cursor may take
        (here ``inf``) used to be rolled forward, and the next data-plane
        step raised ``offset inf beyond head`` out of the engine. Decode
        now rejects it, so the plane walks back to the record before."""
        from repro.chaos import build_platform

        platform = build_platform(7, durable_checkpoints=True)
        platform.run_for(seconds=300)
        job_id = "chaos/job-0"
        plane = platform.checkpoint_plane
        live = platform.scribe.checkpoints.snapshot(job_id)
        bad = dict(live, **{min(live): math.inf})
        platform.scribe.logs[checkpoint_log_name(job_id)].append(
            TaskCheckpoint(job_id=job_id, time=platform.now, offsets=bad).encode()
        )
        platform.scribe.checkpoints.drop_job(job_id)
        platform.run_for(seconds=120)
        assert (plane.restores, plane.fallbacks) == (1, 0)
        (event,) = list(plane.events)
        assert event.kind == "checkpoint-restore"
        restored = platform.scribe.checkpoints.snapshot(job_id)
        assert all(math.isfinite(offset) for offset in restored.values())
        assert min(restored.values()) >= min(live.values()) - 1e-6
