"""Durable task checkpoints over a per-job Scribe command log.

The live ``CheckpointStore`` in the Scribe bus is a *cursor* — the offsets
tasks have acknowledged so far. It is fast but, like any in-memory cursor
service, it can lose state (the ``checkpoint-wipe`` chaos fault models
exactly that). When it does, every task of the job re-reads its input from
the backlog horizon: crash recovery cost is O(backlog).

The ``CheckpointPlane`` makes progress durable the same way PR 7 made the
Job Store durable: it periodically snapshots each job's committed offsets
(plus the progress scalar that seeds the memory-footprint estimate) as a
canonical-JSON record appended to a per-job ``CommandLog``
(``turbine.ckpt.<job>``). When the live cursors regress below the last
durable snapshot — a wipe, or a task restarting from scratch — the plane
rolls them forward to the snapshot, turning recovery cost into
O(since-last-checkpoint).

Restore never crashes: if the log has been trimmed past the retention
horizon and no durable record survives, the plane records an explicit
``checkpoint-fallback`` incident event and lets the job restart from the
backlog horizon — degraded, visible, and deterministic.

Fault-free runs append records but record **no events**, so incident
timelines with the plane attached are byte-identical to timelines without
it (the transparency pattern every optional subsystem here follows).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.errors import ServiceUnavailableError
from repro.obs.bounded import BoundedList
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


@dataclass(frozen=True)
class TaskCheckpoint:
    """One durable snapshot of a job's progress state.

    Attributes:
        job_id: the job whose progress this records.
        time: simulation time the snapshot was taken.
        offsets: committed offset (MB consumed) per input partition.
        progress_mb: total MB processed across partitions — the scalar
            that seeds the restored task's memory-footprint estimate.
    """

    job_id: JobId
    time: Seconds
    offsets: Dict[str, float] = field(default_factory=dict)
    progress_mb: float = 0.0

    def encode(self) -> str:
        """Canonical JSON: key-sorted, so equal snapshots are equal bytes."""
        return json.dumps(
            {
                "job_id": self.job_id,
                "time": self.time,
                "offsets": self.offsets,
                "progress_mb": self.progress_mb,
            },
            sort_keys=True,
        )

    @classmethod
    def decode(cls, payload: str) -> "TaskCheckpoint":
        """Parse a record appended by :meth:`encode`.

        Raises :class:`CheckpointDecodeError` on anything that is not a
        well-formed snapshot, so a corrupt log entry surfaces as a typed
        error instead of a stray ``KeyError`` deep in restore.
        """
        try:
            raw = json.loads(payload)
        except json.JSONDecodeError as exc:
            raise CheckpointDecodeError(f"not JSON: {payload!r}") from exc
        if not isinstance(raw, dict):
            raise CheckpointDecodeError(f"not an object: {payload!r}")
        try:
            offsets = raw["offsets"]
            if not isinstance(offsets, dict):
                raise CheckpointDecodeError(f"offsets not a map: {payload!r}")
            return cls(
                job_id=str(raw["job_id"]),
                time=float(raw["time"]),
                offsets={str(k): float(v) for k, v in offsets.items()},
                progress_mb=float(raw["progress_mb"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            if isinstance(exc, CheckpointDecodeError):
                raise
            raise CheckpointDecodeError(f"bad snapshot: {payload!r}") from exc


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
        interval: Seconds = CHECKPOINT_INTERVAL,
        retention: int = CHECKPOINT_RETENTION,
        telemetry=None,
    ) -> None:
        self._engine = engine
        self._scribe = scribe
        self._task_service = task_service
        self._interval = interval
        self._retention = retention
        self._telemetry = telemetry
        #: Incident events only ("checkpoint-restore" |
        #: "checkpoint-fallback") — empty for a fault-free run, which keeps
        #: the incident timeline byte-identical with the plane disabled.
        self.events: BoundedList = BoundedList(maxlen=256)
        #: Counters for reports and vacuity guards in tests.
        self.appends = 0
        self.restores = 0
        self.fallbacks = 0
        #: Last snapshot written per job, kept in memory to detect cursor
        #: regression without a log read on every tick.
        self._high_water: Dict[JobId, Dict[str, float]] = {}
        #: Last record index read per job (restores resume tailing there).
        self._last_seq: Dict[JobId, int] = {}
        self._timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is not None:
            return
        self._timer = self._engine.every(
            self._interval, self._tick, name="checkpoint-plane"
        )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def forget_job(self, job_id: JobId) -> None:
        """Drop a deprovisioned job's durable state, its log included."""
        self._high_water.pop(job_id, None)
        self._last_seq.pop(job_id, None)
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
        live = self._scribe.checkpoints.snapshot(job_id)
        log = self._scribe.ensure_log(
            checkpoint_log_name(job_id), retention=self._retention
        )
        high_water = self._high_water.get(job_id)
        if high_water and self._regressed(live, high_water):
            cause = "checkpoint log trimmed past retention horizon"
            try:
                moved = self._roll_forward(job_id, log)
            except CheckpointDecodeError:
                moved, cause = -1, "no retained checkpoint record decodes"
            if moved < 0:
                # Nothing durable survives: fall back to the backlog
                # horizon, loudly.
                self.fallbacks += 1
                self._high_water[job_id] = dict(live)
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
        if live and live != high_water:
            snapshot = TaskCheckpoint(
                job_id=job_id,
                time=self._engine.now,
                offsets=dict(live),
                progress_mb=sum(live.values()),
            )
            self._last_seq[job_id] = log.append(snapshot.encode())
            self._high_water[job_id] = dict(live)
            self.appends += 1
            if self._telemetry is not None:
                self._telemetry.inc("ckpt.appends")

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
        self._high_water[job_id] = dict(store.snapshot(job_id))
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

    @staticmethod
    def _regressed(
        live: Dict[str, float], high_water: Dict[str, float]
    ) -> bool:
        """True when any live cursor sits behind the last written snapshot."""
        return any(
            live.get(partition_id, 0.0) + _OFFSET_EPSILON < offset
            for partition_id, offset in high_water.items()
        )
