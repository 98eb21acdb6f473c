"""Reusable cross-component resilience policies.

The paper's "lessons learned" boil down to one discipline: every layer
must assume every other layer can be unavailable, and degrade instead of
failing (sections IV-C/IV-D). Before this module each component enforced
that discipline ad hoc — scattered ``if not service.available`` checks and
``except DegradedModeError`` clauses. The policy kit centralizes the
patterns:

* :class:`CircuitBreaker` — the classic CLOSED → OPEN → HALF_OPEN state
  machine on simulation time. With ``reset_timeout`` at or below the
  caller's tick period every periodic tick doubles as the half-open
  probe, which preserves the recovery-detection latency the per-tick
  boolean checks used to give.
* :class:`LastKnownGood` — a timestamped cache of the last successful
  result, the paper's "containers run tasks based on existing snapshots"
  fallback made reusable.
* :class:`Dependency` — one guarded edge from a component to a service it
  calls. Counts calls/failures/short-circuits into :class:`Telemetry`
  (``resilience.<name>.*``, all deterministic instruments) and classifies
  failures, so call sites write ``dep.call(...)`` or ``dep.probe(...)``
  instead of re-implementing the availability dance.

A call is attempted once. Simulation time cannot advance inside a call,
so a synchronous retry could only hit the same outage again; callers that
try again do so on a later tick (the Task Manager's reconnect loop
re-arms itself every heartbeat interval).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from repro.errors import CircuitOpenError, DegradedModeError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry

#: Breaker states (plain strings: cheap, printable, JSON-friendly).
CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half-open"


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN breaker on simulation time."""

    def __init__(
        self,
        failure_threshold: int = 3,
        reset_timeout: float = 30.0,
    ) -> None:
        if failure_threshold < 1:
            raise ValueError(
                f"failure_threshold must be >= 1: {failure_threshold}"
            )
        self.failure_threshold = failure_threshold
        self.reset_timeout = reset_timeout
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at: Optional[float] = None
        self.times_opened = 0

    def allows(self, now: float) -> bool:
        """Whether a call may proceed; flips OPEN → HALF_OPEN when the
        reset timeout has elapsed (the caller becomes the probe)."""
        if self.state == CLOSED:
            return True
        if self.state == OPEN:
            if (
                self.opened_at is not None
                and now - self.opened_at >= self.reset_timeout
            ):
                self.state = HALF_OPEN
                return True
            return False
        return True  # HALF_OPEN: let the probe through

    def record_success(self) -> None:
        self.state = CLOSED
        self.consecutive_failures = 0
        self.opened_at = None

    def record_failure(self, now: float) -> None:
        self.consecutive_failures += 1
        if (
            self.state == HALF_OPEN
            or self.consecutive_failures >= self.failure_threshold
        ):
            if self.state != OPEN:
                self.times_opened += 1
            self.state = OPEN
            self.opened_at = now


class LastKnownGood:
    """The last successful result of a call, with its freshness."""

    def __init__(self) -> None:
        self._value: Any = None
        self._stored_at: Optional[float] = None

    @property
    def has_value(self) -> bool:
        return self._stored_at is not None

    def store(self, value: Any, now: float) -> None:
        self._value = value
        self._stored_at = now

    def get(self, default: Any = None) -> Any:
        return self._value if self.has_value else default

    def age(self, now: float) -> float:
        """Seconds since the cached value was stored (inf when empty)."""
        if self._stored_at is None:
            return float("inf")
        return now - self._stored_at


@lru_cache(maxsize=None)
def _counter_keys(name: str) -> Mapping[str, str]:
    """The ``resilience.<name>.<what>`` counter keys of one edge name.

    Built once per name and shared read-only: every Task Manager holds
    two edges, and a table per edge measured +1.4 MB peak RSS on 1 024
    containers. Edge names are literals in the code, so the cache stays
    a few entries long.
    """
    return MappingProxyType({
        what: f"resilience.{name}.{what}"
        for what in (
            "calls", "short_circuits", "fallbacks",
            "unavailable", "failures", "breaker_opened",
        )
    })


class Dependency:
    """One guarded call edge from a component to a service.

    Every cross-component call goes through :meth:`call` (raise on
    failure) or :meth:`probe` (return a default on degraded-mode
    failures). Both count into telemetry under ``resilience.<name>.*``;
    counter values are functions of simulation decisions only, so they
    appear in deterministic exports and same-seed runs must agree on them.
    """

    def __init__(
        self,
        name: str,
        clock: Optional[Callable[[], float]] = None,
        telemetry: Optional[Telemetry] = None,
        breaker: Optional[CircuitBreaker] = None,
    ) -> None:
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self._telemetry = telemetry or NULL_TELEMETRY
        self.breaker = breaker
        self.last_error: Optional[BaseException] = None
        #: Counter keys built once, so a call never formats one.
        self._keys = _counter_keys(name)
        self._calls_key = self._keys["calls"]

    # ------------------------------------------------------------------
    # Guarded calls
    # ------------------------------------------------------------------
    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` once under this policy; count and re-raise its failure.

        The clock is read only for the breaker: a breaker-less edge never
        needs it.
        """
        breaker = self.breaker
        now = 0.0
        if breaker is not None:
            now = self._clock()
            if not breaker.allows(now):
                self._inc("short_circuits")
                raise CircuitOpenError(
                    f"dependency {self.name} circuit is open"
                )
        self._telemetry.inc(self._calls_key)
        try:
            result = fn(*args, **kwargs)
        except BaseException as error:
            self._note_failure(error, now)
            raise
        self.last_error = None
        if breaker is not None:
            breaker.record_success()
        return result

    def probe(
        self, fn: Callable[..., Any], *args: Any, default: Any = None, **kwargs: Any
    ) -> Any:
        """Like :meth:`call` but absorb degraded-mode failures.

        Returns ``default`` when the dependency is unavailable (including
        an open breaker) — the graceful path for periodic callers that
        must keep ticking through an outage.
        """
        try:
            return self.call(fn, *args, **kwargs)
        except DegradedModeError:
            self._inc("fallbacks")
            return default

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _note_failure(self, error: BaseException, now: float) -> None:
        self.last_error = error
        if isinstance(error, DegradedModeError):
            self._inc("unavailable")
        else:
            self._inc("failures")
        if self.breaker is not None:
            was_open = self.breaker.state == OPEN
            self.breaker.record_failure(now)
            if self.breaker.state == OPEN and not was_open:
                self._inc("breaker_opened")

    def _inc(self, what: str) -> None:
        self._telemetry.inc(self._keys[what])

    def __repr__(self) -> str:
        state = self.breaker.state if self.breaker is not None else "no-breaker"
        return f"Dependency({self.name!r}, breaker={state})"
