"""A record-bearing Scribe partition: the replicated command log.

The data-plane :class:`~repro.scribe.partition.Partition` abstracts
payloads to byte counts, which is the unit the paper's lag metrics use.
The control plane's state-machine replication needs the opposite: a
partition whose *records* survive, addressed by a dense integer sequence
number, so every replica can apply exactly the same commands in exactly
the same order ("Stream-based State-Machine Replication", PAPERS.md).

:class:`CommandLog` models one such partition:

* :meth:`append` assigns the next sequence number (the write frontier is
  :attr:`head_index`, the index the *next* record will get);
* :meth:`read_from` returns retained records at or after an index, in
  order — the follower catch-up path;
* Scribe retention is a horizon, not a consumer offset: records older
  than :attr:`first_index` are gone regardless of who still needs them.
  A bounded ``retention`` drops the oldest records as new ones land, and
  :meth:`trim` models the horizon passing explicitly. A reader whose
  next index fell behind :attr:`first_index` cannot catch up from the
  log and must install a snapshot first (:exc:`RetentionError` tells it
  so).
* ``online`` mirrors the data-plane partition: an offline log rejects
  nothing producer-side (Scribe buffers) but serves no reads, so
  followers stall and their lag builds.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.errors import ScribeError


class RetentionError(ScribeError):
    """A read asked for records the retention horizon already discarded.

    The reader cannot catch up from the log alone: it must install a
    snapshot at or past :attr:`CommandLog.first_index` and resume from
    there (the snapshot-transfer path of the replication protocol).
    """


class CommandLog:
    """An append-only record log with a retention horizon."""

    __slots__ = ("log_id", "_records", "_first_index", "retention", "online")

    def __init__(self, log_id: str, retention: Optional[int] = None) -> None:
        if retention is not None and retention < 1:
            raise ScribeError(
                f"log {log_id} retention must be >= 1 records: {retention}"
            )
        self.log_id = log_id
        self._records: List[str] = []
        #: Sequence number of the oldest retained record.
        self._first_index = 0
        #: Maximum records retained (``None`` = the log never forgets).
        self.retention = retention
        #: When False the log's brokers are unreachable: appends still
        #: land (Scribe buffers producer-side) but reads return nothing,
        #: so consumers stall and their lag builds.
        self.online = True

    # ------------------------------------------------------------------
    # Producing
    # ------------------------------------------------------------------
    def append(self, payload: str) -> int:
        """Append one record; returns the sequence number it received."""
        if not isinstance(payload, str):
            raise ScribeError(
                f"log {self.log_id} payloads are strings, got "
                f"{type(payload).__name__}"
            )
        index = self.head_index
        self._records.append(payload)
        if self.retention is not None and len(self._records) > self.retention:
            drop = len(self._records) - self.retention
            del self._records[:drop]
            self._first_index += drop
        return index

    # ------------------------------------------------------------------
    # Consuming
    # ------------------------------------------------------------------
    @property
    def head_index(self) -> int:
        """The sequence number the *next* appended record will get."""
        return self._first_index + len(self._records)

    @property
    def first_index(self) -> int:
        """Oldest retained sequence number (the retention horizon)."""
        return self._first_index

    def __len__(self) -> int:
        """Records currently retained."""
        return len(self._records)

    def read_from(self, index: int) -> List[Tuple[int, str]]:
        """Retained ``(sequence, payload)`` records at or after ``index``.

        Returns an empty list while offline (consumers stall; nothing is
        lost). Raises :exc:`RetentionError` when ``index`` fell behind
        the horizon — the caller needs a snapshot, not a bigger read.
        """
        if index < 0:
            raise ScribeError(f"negative index {index} in {self.log_id}")
        if index < self._first_index:
            raise RetentionError(
                f"log {self.log_id} retains [{self._first_index}, "
                f"{self.head_index}); index {index} is behind the horizon"
            )
        if not self.online:
            return []
        records = self._records[index - self._first_index:]
        return [
            (index + position, payload)
            for position, payload in enumerate(records)
        ]

    def trim(self, up_to_index: int) -> int:
        """Discard records below ``up_to_index``; returns how many.

        Models the retention horizon passing (time- or size-based in
        production — never consumer-offset-based, which is why a slow
        follower can be left behind it).
        """
        up_to_index = min(up_to_index, self.head_index)
        drop = up_to_index - self._first_index
        if drop <= 0:
            return 0
        del self._records[:drop]
        self._first_index = up_to_index
        return drop

    def __repr__(self) -> str:
        return (
            f"CommandLog({self.log_id!r}, retained=[{self._first_index}, "
            f"{self.head_index}))"
        )
