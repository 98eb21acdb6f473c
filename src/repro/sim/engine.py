"""The discrete-event engine.

The engine owns simulated time and the event queue. Services read the time
through :attr:`Engine.now` (only :meth:`Engine.run_until` moves it) and
interact with the engine in two ways:

* one-shot events — ``engine.call_in(delay, fn)`` / ``engine.call_at(t, fn)``
* periodic timers — ``engine.every(interval, fn)`` returns a :class:`Timer`
  that re-arms itself after each firing until it is cancelled.

Timers are the backbone of the reproduction: the paper's services are all
periodic (State Syncer every 30 s, Task Manager refresh every 60 s, shard
load report every 10 min, balancer every 30 min), so modelling them as
self-re-arming timers reproduces the propagation latencies the paper quotes
(e.g. 1–2 minute end-to-end scheduling, section IV-D).
"""

from __future__ import annotations

from math import inf
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.sim.events import Event, EventQueue
from repro.sim.rng import SeededRng
from repro.types import Seconds


class Timer:
    """A periodic timer managed by the engine.

    The timer re-schedules itself after each firing. ``cancel()`` stops it
    permanently. A pending timer is its own event-queue entry: it carries
    the ``callback`` (its bound :meth:`_fire`, made once) and ``cancelled``
    flag the queue reads, so arming allocates no event. Slotted: every Task
    Manager arms two.
    """

    __slots__ = (
        "_engine", "interval", "_callback", "name", "callback", "cancelled",
        "fire_count",
    )

    def __init__(
        self,
        engine: "Engine",
        interval: Seconds,
        callback: Callable[[], Any],
        name: str = "",
    ) -> None:
        if not 0.0 < interval < inf:
            raise SimulationError(f"timer interval must be positive and finite: {interval}")
        self._engine = engine
        self.interval = float(interval)
        self._callback = callback
        self.name = name
        #: What the event queue calls when the timer's entry comes due.
        self.callback = self._fire
        #: Set by :meth:`cancel`; the queue then skips the pending entry.
        self.cancelled = False
        self.fire_count = 0

    @property
    def active(self) -> bool:
        """True until the timer is cancelled."""
        return not self.cancelled

    def cancel(self) -> None:
        """Stop the timer permanently (its pending entry is skipped)."""
        self.cancelled = True

    def _arm(self, delay: Optional[Seconds] = None) -> None:
        """Schedule the next firing ``delay`` seconds from now (defaults
        to one interval). No-op once cancelled."""
        if self.cancelled:
            return
        engine = self._engine
        engine.queue.push_entry(
            engine.now + (self.interval if delay is None else delay), self
        )

    def _fire(self) -> None:
        if self.cancelled:
            return
        self.fire_count += 1
        # Re-arm before invoking the callback so a callback that raises does
        # not silently kill the periodic service.
        self._arm()
        self._callback()

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "active"
        return f"Timer(name={self.name!r}, interval={self.interval}, {state})"


class Engine:
    """Deterministic discrete-event simulation engine."""

    def __init__(self, seed: int = 0) -> None:
        #: Current simulated time; only :meth:`run_until` moves it.
        self._now: Seconds = 0.0
        self.queue = EventQueue()
        self.rng = SeededRng(seed)
        self._running = False
        #: Optional per-event hook (duck-typed ``record_event(engine, cb)``;
        #: see :class:`repro.obs.telemetry.EngineInstrumentation`), set by
        #: whoever instruments the run. ``None`` keeps dispatch on the
        #: zero-overhead path.
        self.instrumentation: Optional[Any] = None

    @property
    def now(self) -> Seconds:
        """Current simulated time (read-only)."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def call_at(self, time: Seconds, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` at absolute simulated time ``time``."""
        if not self.now <= time < inf:
            raise SimulationError(
                f"cannot schedule at {time}: before now ({self.now}) or "
                "not finite"
            )
        return self.queue.push(time, callback)

    def call_in(self, delay: Seconds, callback: Callable[[], Any]) -> Event:
        """Schedule ``callback`` after ``delay`` seconds."""
        if not 0.0 <= delay < inf:
            raise SimulationError(f"delay must be non-negative and finite: {delay}")
        return self.queue.push(self.now + delay, callback)

    def every(
        self,
        interval: Seconds,
        callback: Callable[[], Any],
        name: str = "",
        initial_delay: Optional[Seconds] = None,
    ) -> Timer:
        """Create and arm a periodic timer.

        ``initial_delay`` controls the first firing (defaults to one full
        interval); pass a jittered value to de-synchronize replicas.
        """
        timer = Timer(self, interval, callback, name=name)
        first = interval if initial_delay is None else initial_delay
        if not 0.0 <= first < inf:
            raise SimulationError(f"initial delay must be non-negative and finite: {first}")
        timer._arm(first)
        return timer

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def _dispatch(self, callback: Callable[[], Any]) -> None:
        """Deliver one callback, through the instrumentation hook if set."""
        if self.instrumentation is None:
            callback()
        else:
            self.instrumentation.record_event(self, callback)

    def run_until(self, deadline: Seconds) -> None:
        """Deliver events up to and including ``deadline``.

        The clock finishes exactly at ``deadline`` even when no event falls
        on it, so back-to-back ``run_until`` calls tile time precisely.
        """
        if not self.now <= deadline < inf:
            raise SimulationError(
                f"deadline {deadline} is before now ({self.now}) or not finite"
            )
        if self._running:
            raise SimulationError("engine is already running (re-entrant run)")
        self._running = True
        try:
            while True:
                next_time = self.queue.peek_time()
                if next_time is None or next_time > deadline:
                    break
                time, callback = self.queue.pop()
                if time < self._now:
                    # It would reorder already-delivered events.
                    raise SimulationError(
                        f"time cannot move backwards: {time} < {self._now}"
                    )
                self._now = float(time)
                self._dispatch(callback)
        finally:
            self._running = False
        self._now = float(deadline)

    def run_for(self, duration: Seconds) -> None:
        """Deliver events for the next ``duration`` seconds."""
        if not 0.0 <= duration < inf:
            raise SimulationError(f"duration must be non-negative and finite: {duration}")
        self.run_until(self.now + duration)

    def __repr__(self) -> str:
        return f"Engine(now={self.now:.3f}, pending={len(self.queue)})"
