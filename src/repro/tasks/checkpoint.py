"""Durable task checkpoints over a per-job Scribe command log.

The live ``CheckpointStore`` in the Scribe bus is a *cursor* — the offsets
tasks have acknowledged so far. It is fast but, like any in-memory cursor
service, it can lose state (the ``checkpoint-wipe`` chaos fault models
exactly that). When it does, every task of the job re-reads its input from
the backlog horizon: crash recovery cost is O(backlog).

The ``CheckpointPlane`` makes progress durable the same way PR 7 made the
Job Store durable: it periodically snapshots each job's committed offsets
as a record (packed doubles under a CRC-32, see :class:`TaskCheckpoint`)
appended to a per-job ``CommandLog`` (``turbine.ckpt.<job>``). When the
live cursors regress below the last durable snapshot — a wipe, or a task
restarting from scratch — the plane rolls them forward to the snapshot,
turning recovery cost into O(since-last-checkpoint).

Restore never crashes: a record that fails decode's checks is skipped for
the newest retained one that passes. If none does, or the log has been
trimmed past the retention horizon, the plane records an explicit
``checkpoint-fallback`` incident event and lets the job restart from the
backlog horizon — degraded, visible, and deterministic.

Fault-free runs append records but record **no events**, so incident
timelines with the plane attached are byte-identical to timelines without
it (the transparency pattern every optional subsystem here follows).
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.errors import ServiceUnavailableError
from repro.obs.bounded import BoundedList
from repro.scribe.checkpoints import Layout
from repro.scribe.log import CommandLog, RetentionError
from repro.types import IncidentRecord, JobId, Seconds

#: How often the plane snapshots every job's live cursors (paper-scale:
#: a fraction of the 60 s sync round, so a restore loses at most half a
#: scaling decision's worth of progress).
CHECKPOINT_INTERVAL: Seconds = 30.0

#: Records kept per job log. Deliberately small: retention trims are a
#: first-class failure mode (the fallback path), not a corner case.
CHECKPOINT_RETENTION = 16

#: Offsets within this epsilon are "the same" — mirrors the commit
#: monotonicity slack in :class:`repro.scribe.checkpoints.CheckpointStore`.
_OFFSET_EPSILON = 1e-6


class CheckpointDecodeError(ValueError):
    """A checkpoint record's payload is not a valid canonical snapshot."""


def checkpoint_log_name(job_id: JobId) -> str:
    """The Scribe category holding ``job_id``'s checkpoint stream."""
    return f"turbine.ckpt.{job_id}"


class _RecordHeader:
    """A job's record text up to its doubles; ``crc`` is that text's
    CRC-32, which :meth:`record` continues over the hex. The plane builds
    one per :class:`~repro.scribe.checkpoints.Layout` of the job's
    cursors (so once per id set) and keeps it while the layout holds."""

    __slots__ = ("layout", "ids", "text", "crc", "doubles")

    def __init__(
        self, job_id: JobId, ids: List[str], layout: Optional[Layout] = None
    ) -> None:
        self.layout = layout
        self.ids = ids
        self.text = json.dumps([job_id, ids], separators=(",", ":")) + " "
        self.crc = zlib.crc32(self.text.encode())
        self.doubles = f"<{len(ids) + 1}d"

    def record(self, time: Seconds, values: Iterable[float]) -> str:
        """The record of ``values`` (the offsets of :attr:`ids`, in order)."""
        hexed = struct.pack(self.doubles, time, *values).hex()
        return f"{zlib.crc32(hexed.encode(), self.crc):08x}{self.text}{hexed}"


@dataclass(frozen=True)
class TaskCheckpoint:
    """One durable snapshot of a job's progress state.

    The record is ``<crc32:08x>[job_id,[ids…]] <hex>``: the CRC-32 of the
    rest, the job id and its sorted partition ids as compact JSON, then
    the time and the offsets (in id order) as little-endian doubles in
    lowercase hex. Equal snapshots are equal text; doubles are bit-exact.

    Attributes:
        job_id: the job whose progress this records.
        time: simulation time the snapshot was taken.
        offsets: committed offset (MB consumed) per input partition.
    """

    job_id: JobId
    time: Seconds
    offsets: Dict[str, float] = field(default_factory=dict)

    def encode(self) -> str:
        """The canonical record of this snapshot."""
        header = _RecordHeader(self.job_id, sorted(self.offsets))
        return header.record(self.time, map(self.offsets.__getitem__, header.ids))

    @classmethod
    def decode(cls, payload: str) -> "TaskCheckpoint":
        """Parse and check a record appended by :meth:`encode`.

        Raises :class:`CheckpointDecodeError` unless ``payload`` is exactly
        the encoding of the snapshot it parses to (so the CRC, the id order
        and the hex are all checked) with a finite, non-negative time and
        offsets: a corrupt log entry surfaces as a typed error instead of a
        stray ``KeyError`` deep in restore or a cursor past a head.
        """
        try:
            text, _, hexed = payload[8:].rpartition(" ")
            job_id, ids = json.loads(text)
            if not all(isinstance(name, str) for name in (job_id, *ids)):
                raise ValueError("malformed header")
            time, *values = struct.unpack(
                f"<{len(ids) + 1}d", bytes.fromhex(hexed)
            )
            if not all(0.0 <= value < math.inf for value in (time, *values)):
                raise ValueError("non-finite or negative time or offset")
            snapshot = cls(job_id, time, dict(zip(ids, values)))
            if snapshot.encode() != payload:
                raise ValueError("CRC mismatch or not the canonical record")
        except (TypeError, ValueError, RecursionError, struct.error) as exc:
            raise CheckpointDecodeError(f"{exc}: {payload!r}") from exc
        return snapshot


class CheckpointPlane:
    """Periodically snapshots live cursors to Scribe and restores them.

    One plane serves the whole platform (checkpoints are per job, not per
    container, exactly like the live ``CheckpointStore`` it mirrors).
    """

    def __init__(
        self,
        engine,
        scribe,
        task_service,
        telemetry=None,
    ) -> None:
        self._engine = engine
        self._scribe = scribe
        self._task_service = task_service
        self._telemetry = telemetry
        #: Incident events only ("checkpoint-restore" |
        #: "checkpoint-fallback") — empty for a fault-free run, which keeps
        #: the incident timeline byte-identical with the plane disabled.
        self.events: BoundedList = BoundedList(maxlen=256)
        #: Counters for reports and vacuity guards in tests.
        self.appends = 0
        self.restores = 0
        self.fallbacks = 0
        #: Last snapshot written per job — its header and a copy of the
        #: committed offsets in the header's id order — kept in memory to
        #: detect cursor regression without a log read on every tick.
        self._high_water: Dict[JobId, Tuple[_RecordHeader, Sequence[float]]] = {}
        #: Last record index read per job (restores resume tailing there).
        self._last_seq: Dict[JobId, int] = {}
        #: Per job, the record header of its current partition-id set.
        self._headers: Dict[JobId, _RecordHeader] = {}
        self._timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is not None:
            return
        self._timer = self._engine.every(
            CHECKPOINT_INTERVAL, self._tick, name="checkpoint-plane"
        )

    def forget_job(self, job_id: JobId) -> None:
        """Drop a deprovisioned job's durable state, its log included."""
        self._high_water.pop(job_id, None)
        self._last_seq.pop(job_id, None)
        self._headers.pop(job_id, None)
        self._scribe.drop_log(checkpoint_log_name(job_id))

    def held_jobs(self) -> List[JobId]:
        """Every job with a checkpoint log (no mark outlives its log)."""
        prefix = checkpoint_log_name("")
        logs = self._scribe.logs
        return [name[len(prefix):] for name in logs if name.startswith(prefix)]

    # ------------------------------------------------------------------
    # Snapshot tick
    # ------------------------------------------------------------------
    def _tick(self) -> None:
        try:
            job_ids = self._task_service.job_ids()
        except ServiceUnavailableError:
            return  # Task service outage: skip the round, retry next tick.
        for job_id in job_ids:
            self.snapshot_job(job_id)

    def snapshot_job(self, job_id: JobId) -> None:
        """Snapshot one job now — or roll it forward if its cursors regressed."""
        live = header, values = self._live(job_id)
        log = self._scribe.ensure_log(
            checkpoint_log_name(job_id), retention=CHECKPOINT_RETENTION
        )
        high_water = self._high_water.get(job_id)
        if high_water is None:
            regressed = False
        elif high_water[0] is header:
            # The same ids in the same order: compare the value lists.
            marked = high_water[1]
            if values == marked:
                return
            regressed = False
            for now, then in zip(values, marked):
                if now + _OFFSET_EPSILON < then:
                    regressed = True
                    break
        else:
            now_by_id = dict(zip(header.ids, values))
            marked_by_id = dict(zip(high_water[0].ids, high_water[1]))
            regressed = _regressed(now_by_id, marked_by_id)
            if not regressed and now_by_id == marked_by_id:
                return
        if regressed:
            cause = "checkpoint log trimmed past retention horizon"
            try:
                moved = self._roll_forward(job_id, log)
            except CheckpointDecodeError:
                moved, cause = -1, "no retained checkpoint record decodes"
            if moved < 0:
                # Nothing durable survives: fall back to the backlog
                # horizon, loudly.
                self.fallbacks += 1
                self._high_water[job_id] = live
                self.events.append(
                    IncidentRecord(
                        self._engine.now,
                        "checkpoint-fallback",
                        f"{job_id}: {cause}; restarting from the backlog "
                        "horizon",
                    )
                )
                if self._telemetry is not None:
                    self._telemetry.inc("ckpt.fallbacks")
            return
        if values:
            self._last_seq[job_id] = log.append(
                header.record(self._engine.now, values)
            )
            self._high_water[job_id] = live
            self.appends += 1
            if self._telemetry is not None:
                self._telemetry.inc("ckpt.appends")

    def _live(self, job_id: JobId) -> Tuple[_RecordHeader, Sequence[float]]:
        """The job's record header now (rebuilt only when its committed
        partitions changed) and its committed offsets in the header's id
        order."""
        store = self._scribe.checkpoints
        header = self._headers.get(job_id)
        layout = store.layout(job_id, header.layout if header is not None else None)
        if header is None or header.layout is not layout:
            header = self._headers[job_id] = _RecordHeader(job_id, layout.ids, layout)
        return header, layout.values(store.columns.get(job_id, {}))

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def on_task_start(self, job_id: JobId) -> int:
        """Roll ``job_id``'s cursors forward before a task (re)starts.

        Called by the Task Manager when it starts a task, so a restart
        resumes from the latest durable checkpoint instead of wherever
        the live cursors happen to point. Returns the number of
        partitions rolled forward (0 when the durable snapshot is not
        ahead, which is the fault-free case and records nothing).
        """
        log = self._scribe.logs.get(checkpoint_log_name(job_id))
        if log is None:
            return 0  # Never checkpointed — nothing durable to restore.
        try:
            return max(0, self._roll_forward(job_id, log))
        except CheckpointDecodeError:
            return 0

    def _roll_forward(self, job_id: JobId, log: CommandLog) -> int:
        """Commit the latest durable snapshot over the live cursors.

        Returns the number of partitions moved forward, or -1 when no
        durable record survives in the log; raises
        :class:`CheckpointDecodeError` when records survive but none
        decodes.
        """
        latest = self._latest(job_id, log)
        if latest is None:
            return -1
        moved = 0
        store = self._scribe.checkpoints
        for partition_id in sorted(latest.offsets):
            offset = latest.offsets[partition_id]
            if offset > store.get(job_id, partition_id) + _OFFSET_EPSILON:
                store.commit(job_id, partition_id, offset)
                moved += 1
        self._high_water[job_id] = self._live(job_id)
        if moved:
            self.restores += 1
            self.events.append(
                IncidentRecord(
                    self._engine.now,
                    "checkpoint-restore",
                    f"{job_id}: rolled {moved} partitions forward to the "
                    f"t={latest.time:g}s snapshot",
                )
            )
            if self._telemetry is not None:
                self._telemetry.inc("ckpt.restores")
        return moved

    def _latest(self, job_id: JobId, log: CommandLog) -> Optional[TaskCheckpoint]:
        """The newest decodable snapshot in ``log``, tailing incrementally.

        ``None`` when no record is retained. A record that does not decode
        is skipped for the one before it, back to the oldest retained
        record; when none decodes, the last error is raised.
        """
        start = self._last_seq.get(job_id, log.first_index)
        try:
            records = log.read_from(start)
        except RetentionError:
            records = log.read_from(log.first_index)
        if not records:
            return None
        seq, payload = records[-1]
        self._last_seq[job_id] = seq
        try:
            return TaskCheckpoint.decode(payload)
        except CheckpointDecodeError as error:
            undecodable = error
        for __, payload in reversed(log.read_from(log.first_index)[:-1]):
            try:
                return TaskCheckpoint.decode(payload)
            except CheckpointDecodeError as error:
                undecodable = error
        raise undecodable



def _regressed(live: Dict[str, float], high_water: Dict[str, float]) -> bool:
    """True when any live cursor sits behind the last written snapshot."""
    for partition_id, offset in high_water.items():
        if live.get(partition_id, 0.0) + _OFFSET_EPSILON < offset:
            return True
    return False
