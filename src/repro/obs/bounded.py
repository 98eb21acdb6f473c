"""A list with bounded retention, for in-memory audit trails.

The platform keeps append-only records of what happened — health reports,
oncall alerts, failover events, capacity actions, sync-round reports. A
simulation that runs for months of simulated time would grow those without
limit, so each is bounded: when the list exceeds its cap the oldest chunk
is evicted. Eviction happens in chunks (10 % of the cap) so the O(n)
front-removal cost of a Python list amortizes to O(1) per append.

This is a real ``list`` subclass (not a deque) so existing consumers —
equality against plain lists, slicing, ``[-1]`` — keep working.
"""

from __future__ import annotations

from typing import Optional, TypeVar

T = TypeVar("T")


class BoundedList(list):
    """A ``list`` that evicts its oldest entries beyond ``maxlen``."""

    def __init__(self, maxlen: Optional[int] = None) -> None:
        if maxlen is not None and maxlen <= 0:
            raise ValueError(f"maxlen must be positive: {maxlen}")
        super().__init__()
        self.maxlen = maxlen

    def append(self, item) -> None:
        super().append(item)
        self._trim()

    def extend(self, iterable) -> None:
        super().extend(iterable)
        self._trim()

    def _trim(self) -> None:
        if self.maxlen is None or len(self) <= self.maxlen:
            return
        # Evict down past the cap by a chunk, so eviction is amortized.
        target = max(0, self.maxlen - max(1, self.maxlen // 10))
        del self[: len(self) - target]
