"""Checkpoint store.

Each task "maintains its own state and checkpoint" (paper section II). The
checkpoint store maps ``(job, partition)`` to the byte offset up to which
that partition has been processed. Checkpoints are keyed by partition — not
by task — so changing a job's parallelism only *redistributes* which task
reads which partition; no data is lost or re-processed. This is exactly the
redistribution step the State Syncer performs during a complex
synchronization (paper section III-B).
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Dict, Iterable, List, Mapping, Tuple

from repro.errors import ScribeError
from repro.scribe.partition import Partition
from repro.types import JobId

#: What a job that never committed reads from: every cursor at 0.0.
NO_OFFSETS: Mapping[str, float] = MappingProxyType({})


class CheckpointStore:
    """Durable map of ``(job_id, partition_id) -> offset``."""

    def __init__(self) -> None:
        #: ``job -> partition id -> offset``: the live map. The container
        #: step (:func:`repro.tasks.runtime.step_container`) reads and
        #: commits through a job's inner mapping directly; it looks the
        #: job up again every tick, because :meth:`drop_job` removes the
        #: inner mapping while the job's tasks may still run.
        self.offsets: Dict[JobId, Dict[str, float]] = {}

    def get(self, job_id: JobId, partition_id: str) -> float:
        """The committed offset, or 0.0 for a never-checkpointed partition."""
        return self.offsets.get(job_id, NO_OFFSETS).get(partition_id, 0.0)

    def lag_mb(self, job_id: JobId, partitions: Iterable[Partition]) -> float:
        """Unprocessed bytes (MB) of ``partitions`` for one reading job:
        per partition, head minus committed offset. The true backlog — it
        keeps counting while a partition is offline."""
        return self.head_and_lag_mb(job_id, partitions)[1]

    def head_and_lag_mb(
        self, job_id: JobId, partitions: Iterable[Partition]
    ) -> Tuple[float, float]:
        """``(Σ head, Σ lag)`` of ``partitions`` for one reading job, in one
        walk (:meth:`lag_mb` is the second). Both add in partition order
        from 0, the order ``sum()`` adds in on CPython 3.9–3.11, so the
        head total is bit-identical to ``Category.total_head``."""
        committed = self.offsets.get(job_id, NO_OFFSETS).get
        total = lag = 0
        for partition in partitions:
            offset = committed(partition.partition_id, 0.0)
            head = partition.head
            if offset < 0 or offset > head + 1e-6:
                raise partition.offset_error(offset)
            total += head
            lag += head - offset
        return total, lag

    def commit(self, job_id: JobId, partition_id: str, offset: float) -> None:
        """Advance the committed offset. Moving backwards is rejected —
        a regressing checkpoint would cause duplicate processing, and a
        non-finite one would put the cursor past every partition head."""
        if not 0 <= offset < math.inf:
            raise ScribeError(f"bad checkpoint offset: {offset}")
        current = self.get(job_id, partition_id)
        if offset < current - 1e-6:
            raise ScribeError(
                f"checkpoint for {job_id}/{partition_id} cannot move backwards: "
                f"{offset} < {current}"
            )
        self.offsets.setdefault(job_id, {})[partition_id] = offset

    def partitions_of(self, job_id: JobId) -> List[str]:
        """All partition ids this job has ever checkpointed."""
        return sorted(self.offsets.get(job_id, NO_OFFSETS))

    def job_ids(self) -> Iterable[JobId]:
        """Every job with a committed offset."""
        return self.offsets.keys()

    def drop_job(self, job_id: JobId) -> None:
        """Forget a deleted job's checkpoints."""
        self.offsets.pop(job_id, None)

    def snapshot(self, job_id: JobId) -> Dict[str, float]:
        """A copy of the job's checkpoints (used by redistribution tests)."""
        return dict(self.offsets.get(job_id, NO_OFFSETS))

    def __repr__(self) -> str:
        return f"CheckpointStore(jobs={len(self.offsets)})"
