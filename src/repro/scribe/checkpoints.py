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

from typing import Dict, Iterable, List

from repro.errors import ScribeError
from repro.types import JobId


class CheckpointStore:
    """Durable map of ``(job_id, partition_id) -> offset``."""

    def __init__(self) -> None:
        self._offsets: Dict[JobId, Dict[str, float]] = {}

    def get(self, job_id: JobId, partition_id: str) -> float:
        """The committed offset, or 0.0 for a never-checkpointed partition."""
        return self._offsets.get(job_id, {}).get(partition_id, 0.0)

    def commit(self, job_id: JobId, partition_id: str, offset: float) -> None:
        """Advance the committed offset. Moving backwards is rejected —
        a regressing checkpoint would cause duplicate processing."""
        if offset < 0:
            raise ScribeError(f"negative checkpoint offset: {offset}")
        current = self.get(job_id, partition_id)
        if offset < current - 1e-6:
            raise ScribeError(
                f"checkpoint for {job_id}/{partition_id} cannot move backwards: "
                f"{offset} < {current}"
            )
        self._offsets.setdefault(job_id, {})[partition_id] = offset

    def partitions_of(self, job_id: JobId) -> List[str]:
        """All partition ids this job has ever checkpointed."""
        return sorted(self._offsets.get(job_id, {}))

    def job_ids(self) -> Iterable[JobId]:
        """Every job with a committed offset."""
        return self._offsets.keys()

    def drop_job(self, job_id: JobId) -> None:
        """Forget a deleted job's checkpoints."""
        self._offsets.pop(job_id, None)

    def snapshot(self, job_id: JobId) -> Dict[str, float]:
        """A copy of the job's checkpoints (used by redistribution tests)."""
        return dict(self._offsets.get(job_id, {}))

    def __repr__(self) -> str:
        return f"CheckpointStore(jobs={len(self._offsets)})"
