"""Checkpoint store.

Each task "maintains its own state and checkpoint" (paper section II). The
checkpoint store maps ``(job, partition)`` to the byte offset up to which
that partition has been processed. Checkpoints are keyed by partition — not
by task — so changing a job's parallelism only *redistributes* which task
reads which partition; no data is lost or re-processed. This is exactly the
redistribution step the State Syncer performs during a complex
synchronization (paper section III-B).

The cursors are kept as columns: per job, one list of offsets per input
category, indexed by partition number like :attr:`Category.heads`. A
partition id ``"<category>/<n>"`` names entry ``n`` of column
``<category>``; any other id gets a one-entry column of its own. String
ids appear only at this API's edge (:meth:`CheckpointStore.get`,
:meth:`~CheckpointStore.commit`, :meth:`~CheckpointStore.snapshot`,
:meth:`~CheckpointStore.partitions_of`); the container step reads and
writes the columns by partition number.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import inf
from operator import itemgetter
from types import MappingProxyType
from typing import (
    TYPE_CHECKING, Dict, Iterable, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

from repro.errors import ScribeError
from repro.types import JobId

if TYPE_CHECKING:
    from repro.scribe.category import Category

#: A cursor column's key: a category name, or ``(partition_id,)`` for an
#: id that does not name a numbered partition of a category.
ColumnKey = Union[str, Tuple[str]]

_NO_COLUMNS: Mapping[ColumnKey, List[float]] = MappingProxyType({})


def _locate(partition_id: str) -> Tuple[ColumnKey, int]:
    """The column key and entry index a partition id names."""
    name, slash, number = partition_id.rpartition("/")
    if slash and number.isascii() and number.isdigit() and str(int(number)) == number:
        return name, int(number)
    return (partition_id,), 0


class Layout:
    """Which entries of a job's columns hold a committed cursor, and the
    order of their partition ids as strings (``c/10`` before ``c/2``).

    ``marks`` lists ``(key, column length, committed indices)`` for every
    column with a committed entry, in column order; ``names`` gives each
    such column's partition ids by index. ``full`` is given when every
    entry of every column of the job is committed: each column's key,
    object and length. While the same objects keep those lengths, nothing
    can change which entries are committed (entries never lose a
    commit; a drop replaces the objects, a commit past the end grows one).
    """

    __slots__ = ("marks", "keys", "ids", "pick", "full")

    def __init__(
        self,
        marks: List[Tuple[ColumnKey, int, List[int]]],
        names: Mapping[ColumnKey, List[str]],
        full: Optional[List[Tuple[ColumnKey, List[float], int]]] = None,
    ) -> None:
        self.marks = marks
        self.keys = [key for key, _, _ in marks]
        self.full = full
        entries = []
        base = 0
        for key, size, indices in marks:
            ids = names[key]
            entries.extend((ids[index], base + index) for index in indices)
            base += size
        entries.sort()
        self.ids: List[str] = [partition_id for partition_id, _ in entries]
        #: The committed offsets, in id order, out of the marked columns
        #: joined in column order (one C call: a tuple, or a list for
        #: fewer than two ids).
        perm = [position for _, position in entries]
        if len(perm) > 1:
            self.pick = itemgetter(*perm)
        else:
            self.pick = itemgetter(slice(perm[0], perm[0] + 1) if perm else slice(0, 0))

    def values(self, columns: Mapping[ColumnKey, List[float]]) -> Sequence[float]:
        """The committed offsets of ``columns`` (the job's, as laid out
        here), in id order."""
        keys = self.keys
        if len(keys) == 1:
            return self.pick(columns[keys[0]])
        return self.pick(list(chain.from_iterable(map(columns.__getitem__, keys))))


class CheckpointStore:
    """Durable map of ``(job_id, partition_id) -> offset``."""

    def __init__(self) -> None:
        #: ``job -> column key -> offset per partition number``: the live
        #: cursors. An entry nobody committed holds 0.0; one holding
        #: anything else was committed (a committed 0.0 is remembered in
        #: ``_zeros``). The container step reads and writes a job's
        #: column in place and looks it up again every tick, because
        #: :meth:`drop_job` removes the job's columns while its tasks may
        #: still run.
        self.columns: Dict[JobId, Dict[ColumnKey, List[float]]] = {}
        #: ``job -> {(key, index)}`` of entries committed at 0.0 or -0.0.
        self._zeros: Dict[JobId, Set[Tuple[ColumnKey, int]]] = {}
        #: Partition count of every category the bus has created, by
        #: name: a column is never shorter than its category.
        self._sizes: Dict[str, int] = {}
        #: Columns made for a category name before the bus created it.
        self._early: Dict[str, List[List[float]]] = {}

    # ------------------------------------------------------------------
    # Columns
    # ------------------------------------------------------------------
    def fit(self, name: str, size: int) -> None:
        """Category ``name`` has ``size`` partitions: its columns (and every
        later one) cover them. The bus calls this when it creates it."""
        self._sizes[name] = size
        for column in self._early.pop(name, ()):
            if len(column) < size:
                column.extend(repeat(0.0, size - len(column)))

    def column(self, job_id: JobId, key: ColumnKey, size: int) -> List[float]:
        """The job's cursor column ``key`` with at least ``size`` entries,
        created or extended (in place) with uncommitted zeros."""
        columns = self.columns.get(job_id)
        if columns is None:
            columns = self.columns[job_id] = {}
        column = columns.get(key)
        if column is None:
            known = self._sizes.get(key)
            column = columns[key] = [0.0] * max(size, known or 0)
            if known is None and key.__class__ is str:
                self._early.setdefault(key, []).append(column)
        elif len(column) < size:
            column.extend(repeat(0.0, size - len(column)))
        return column

    def layout(self, job_id: JobId, cached: Optional[Layout] = None) -> Layout:
        """The job's :class:`Layout` now; ``cached`` when it still holds."""
        columns = self.columns.get(job_id, _NO_COLUMNS)
        full = cached.full if cached is not None else None
        if full is not None and len(columns) == len(full):
            for key, column, size in full:
                if columns.get(key) is not column or len(column) != size:
                    break
            else:
                return cached
        marks = []
        zeros = self._zeros.get(job_id)
        for key, column in columns.items():
            indices = list(compress(range(len(column)), column))
            if zeros:
                extra = {index for zero_key, index in zeros if zero_key == key}
                if extra:
                    indices = sorted(extra.union(indices))
            if indices:
                marks.append((key, len(column), indices))
        if cached is not None and cached.marks == marks:
            return cached
        full = None
        if len(marks) == len(columns) and all(
            len(indices) == size for _, size, indices in marks
        ):
            full = [(key, columns[key], size) for key, size, _ in marks]
        names = {
            key: [f"{key}/{index}" for index in range(size)]
            if key.__class__ is str else [key[0]]
            for key, size, _ in marks
        }
        return Layout(marks, names, full)

    # ------------------------------------------------------------------
    # By partition id
    # ------------------------------------------------------------------
    def get(self, job_id: JobId, partition_id: str) -> float:
        """The committed offset, or 0.0 for a never-checkpointed partition."""
        key, index = _locate(partition_id)
        column = self.columns.get(job_id, _NO_COLUMNS).get(key)
        if column is None or index >= len(column):
            return 0.0
        return column[index]

    def commit(self, job_id: JobId, partition_id: str, offset: float) -> None:
        """Advance the committed offset. Moving backwards is rejected —
        a regressing checkpoint would cause duplicate processing, and a
        non-finite one would put the cursor past every partition head."""
        if not 0 <= offset < inf:
            raise ScribeError(f"bad checkpoint offset: {offset}")
        current = self.get(job_id, partition_id)
        if offset < current - 1e-6:
            raise ScribeError(
                f"checkpoint for {job_id}/{partition_id} cannot move backwards: "
                f"{offset} < {current}"
            )
        key, index = _locate(partition_id)
        self.column(job_id, key, index + 1)[index] = offset
        if not offset:
            self._zeros.setdefault(job_id, set()).add((key, index))

    def partitions_of(self, job_id: JobId) -> List[str]:
        """All partition ids this job has ever checkpointed, sorted."""
        return self.layout(job_id).ids

    def snapshot(self, job_id: JobId) -> Dict[str, float]:
        """A copy of the job's checkpoints, in partition-id order."""
        layout = self.layout(job_id)
        return dict(zip(layout.ids, layout.values(self.columns.get(job_id, _NO_COLUMNS))))

    # ------------------------------------------------------------------
    # Lag
    # ------------------------------------------------------------------
    def lag_mb(
        self, job_id: JobId, category: "Category", indices: Iterable[int]
    ) -> float:
        """Unprocessed bytes (MB) of ``category``'s partitions ``indices``
        for one reading job: per partition, head minus committed offset.
        The true backlog — it keeps counting while a partition is
        offline."""
        return self.head_and_lag_mb(job_id, category, indices)[1]

    def head_and_lag_mb(
        self, job_id: JobId, category: "Category", indices: Iterable[int]
    ) -> Tuple[float, float]:
        """``(Σ head, Σ lag)`` of ``category``'s partitions ``indices`` for
        one reading job, in one walk of the columns (:meth:`lag_mb` is the
        second). Both add in index order from 0, as
        :func:`~repro.types.sum_in_order` does, so the head total over
        every partition is bit-identical to ``Category.total_head`` on
        every interpreter."""
        heads = category.heads
        offsets = self.columns.get(job_id, _NO_COLUMNS).get(category.name)
        if offsets is None:
            offsets = [0.0] * len(heads)
        total = lag = 0
        for index in indices:
            offset = offsets[index]
            head = heads[index]
            if offset < 0 or offset > head + 1e-6:
                raise category.partitions[index].offset_error(offset)
            total += head
            lag += head - offset
        return total, lag

    # ------------------------------------------------------------------
    # Jobs
    # ------------------------------------------------------------------
    def job_ids(self) -> List[JobId]:
        """Every job with a committed offset."""
        return [
            job_id for job_id, columns in self.columns.items()
            if job_id in self._zeros or any(map(any, columns.values()))
        ]

    def drop_job(self, job_id: JobId) -> None:
        """Forget a deleted job's checkpoints."""
        self.columns.pop(job_id, None)
        self._zeros.pop(job_id, None)

    def __repr__(self) -> str:
        return f"CheckpointStore(jobs={len(self.columns)})"
