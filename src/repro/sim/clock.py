"""Simulation clock.

The clock is advanced only by the engine; services read it to timestamp
metrics, heartbeats, and configuration versions. Keeping the clock separate
from the engine lets substrate components depend on time without being able
to (accidentally) advance it.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.types import Seconds


class SimClock:
    """A monotonically non-decreasing simulated wall clock.

    The engine owns the single mutable reference; everyone else should treat
    the clock as read-only via :attr:`now`.
    """

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now: Seconds = 0.0

    @property
    def now(self) -> Seconds:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, t: Seconds) -> None:
        """Move the clock forward to ``t``.

        Only the engine should call this. Moving backwards is an error —
        it would reorder already-delivered events.
        """
        if t < self._now:
            raise SimulationError(
                f"clock cannot move backwards: {t} < {self._now}"
            )
        self._now = float(t)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.3f})"
