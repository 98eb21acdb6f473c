"""Event queue for the discrete-event engine.

Events are ordered by ``(time, sequence)``. The sequence number breaks ties
deterministically: two events scheduled for the same instant fire in the
order they were scheduled, which keeps runs reproducible regardless of heap
internals. The heap holds ``(time, seq, entry)`` tuples, so every heap
comparison is a C tuple comparison that the unique ``seq`` always decides
— the entry itself (and its callback) never takes part in ordering.

An entry is anything with a ``callback`` and a ``cancelled`` flag: an
:class:`Event` for a one-shot callback, or a periodic
:class:`~repro.sim.engine.Timer`, which is its own entry (a pending timer
costs its heap tuple and nothing more).
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.types import Seconds


class Event:
    """A scheduled callback (slotted: every pending timer holds one)."""

    __slots__ = ("time", "seq", "callback", "cancelled")

    def __init__(self, time: Seconds, seq: int, callback: Callable[[], Any]) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        #: Cancelled events stay in the heap but are skipped on pop. This
        #: is the standard "lazy deletion" idiom for heapq-based schedulers.
        self.cancelled = False

    def cancel(self) -> None:
        """Mark this event so the queue skips it."""
        self.cancelled = True


class EventQueue:
    """A priority queue of entries (:class:`Event` objects and timers) with
    lazy cancellation."""

    def __init__(self) -> None:
        self._heap: List[Tuple[Seconds, int, Any]] = []
        self._counter = itertools.count()

    def __len__(self) -> int:
        return sum(1 for entry in self._heap if not entry[2].cancelled)

    def __bool__(self) -> bool:
        return any(not entry[2].cancelled for entry in self._heap)

    def push(self, time: Seconds, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute time ``time``."""
        if time < 0:
            raise SimulationError(f"cannot schedule before time zero: {time}")
        event = Event(float(time), next(self._counter), callback)
        heapq.heappush(self._heap, (event.time, event.seq, event))
        return event

    def push_entry(self, time: Seconds, entry: Any) -> None:
        """Schedule an entry of its own (a timer) at absolute time ``time``:
        its ``callback`` fires then unless its ``cancelled`` is set."""
        if time < 0:
            raise SimulationError(f"cannot schedule before time zero: {time}")
        heapq.heappush(self._heap, (float(time), next(self._counter), entry))

    def peek_time(self) -> Optional[Seconds]:
        """Time of the next live event, or ``None`` if the queue is empty."""
        self._drop_cancelled_head()
        if not self._heap:
            return None
        return self._heap[0][0]

    def pop(self) -> Tuple[Seconds, Callable[[], Any]]:
        """Remove and return the next live event as ``(time, callback)``."""
        self._drop_cancelled_head()
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        time, _, event = heapq.heappop(self._heap)
        return time, event.callback

    def _drop_cancelled_head(self) -> None:
        while self._heap and self._heap[0][2].cancelled:
            heapq.heappop(self._heap)
