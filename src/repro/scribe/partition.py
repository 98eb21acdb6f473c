"""A single Scribe partition.

A partition is an append-only byte stream addressed by offset. Producers
append; consumers read from an offset they manage themselves (via the
checkpoint store). The partition never forgets data — Scribe is persistent —
so any offset at or below the head is always readable.

The state lives in its category's columns (:attr:`Category.heads`,
:attr:`Category.online`); a ``Partition`` is a handle on one entry of
them, for the callers that address one partition at a time.
"""

from __future__ import annotations

from math import inf
from typing import TYPE_CHECKING

from repro.errors import ScribeError

if TYPE_CHECKING:
    from repro.scribe.category import Category


class Partition:
    """An append-only stream measured in bytes: entry ``index`` of
    ``category``'s columns."""

    __slots__ = ("partition_id", "category", "index")

    def __init__(self, partition_id: str, category: "Category", index: int) -> None:
        self.partition_id = partition_id
        self.category = category
        self.index = index

    @property
    def head(self) -> float:
        """Total bytes ever appended (the write frontier)."""
        return self.category.heads[self.index]

    @head.setter
    def head(self, value: float) -> None:
        self.category.heads[self.index] = value

    @property
    def online(self) -> bool:
        """When False the partition's brokers are unreachable: reads
        return nothing (consumers stall and lag builds) while appends
        still land — Scribe buffers producer-side, so no data is lost
        and the backlog is fully readable after recovery."""
        return self.category.online[self.index]

    @online.setter
    def online(self, value: bool) -> None:
        self.category.online[self.index] = value

    def append(self, num_bytes: float) -> float:
        """Append ``num_bytes`` and return the new head offset."""
        if not 0 <= num_bytes < inf:
            raise ScribeError(
                f"cannot append {num_bytes} bytes to {self.partition_id}"
            )
        heads = self.category.heads
        heads[self.index] += num_bytes
        return heads[self.index]

    def available(self, offset: float) -> float:
        """Bytes backlogged past ``offset`` (0 when the reader is caught up).

        This is the true backlog — it keeps counting while the partition
        is offline, which is what lag metrics must report. Consumers
        fetch up to :meth:`readable`, which goes to zero during an outage.
        """
        self._check_offset(offset)
        return self.head - offset

    def readable(self, offset: float) -> float:
        """Bytes a consumer can actually fetch right now (0 offline)."""
        if not self.online:
            self._check_offset(offset)
            return 0.0
        return self.available(offset)

    def _check_offset(self, offset: float) -> None:
        if offset < 0 or offset > self.head + 1e-6:
            raise self.offset_error(offset)

    def offset_error(self, offset: float) -> ScribeError:
        """What a cursor outside ``[0, head + 1e-6]`` raises — here, and
        where the container step and the lag sum make the same check
        inline."""
        if offset < 0:
            return ScribeError(f"negative offset {offset} in {self.partition_id}")
        return ScribeError(
            f"offset {offset} beyond head {self.head} in {self.partition_id}"
        )

    def __repr__(self) -> str:
        return f"Partition({self.partition_id!r}, head={self.head:g})"
