"""One counted call edge from a component to a service it calls.

The paper's "lessons learned" boil down to one discipline: every layer
must assume every other layer can be unavailable, and degrade instead of
failing (sections IV-C/IV-D). A :class:`Dependency` is one such edge: it
counts calls and classifies failures into :class:`Telemetry`
(``resilience.<name>.*``, all deterministic instruments), so call sites
write ``dep.call(...)`` or ``dep.probe(...)`` instead of re-implementing
the availability dance.

A call is attempted once. Simulation time cannot advance inside a call,
so a synchronous retry could only hit the same outage again; callers
try again on their next periodic tick (the Task Manager's reconnect
loop re-arms itself every heartbeat interval).
"""

from __future__ import annotations

from functools import lru_cache
from types import MappingProxyType
from typing import Any, Callable, Mapping, Optional

from repro.errors import DegradedModeError
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry


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
        for what in ("calls", "fallbacks", "unavailable", "failures")
    })


class Dependency:
    """One counted call edge from a component to a service.

    Every cross-component call goes through :meth:`call` (raise on
    failure) or :meth:`probe` (return a default on degraded-mode
    failures). Both count into telemetry under ``resilience.<name>.*``;
    counter values are functions of simulation decisions only, so they
    appear in deterministic exports and same-seed runs must agree on them.
    """

    def __init__(self, name: str, telemetry: Optional[Telemetry]) -> None:
        self.name = name
        self._telemetry = telemetry or NULL_TELEMETRY
        #: Counter keys built once, so a call never formats one.
        self._keys = _counter_keys(name)
        self._calls_key = self._keys["calls"]

    def call(self, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` once; count and re-raise its failure."""
        self._telemetry.inc(self._calls_key)
        try:
            return fn(*args, **kwargs)
        except DegradedModeError:
            self._inc("unavailable")
            raise
        except BaseException:
            self._inc("failures")
            raise

    def count_calls(self, calls: int) -> None:
        """Count ``calls`` successful calls made in one batched call (a
        heartbeat sweep's): the counter reads as if each went through
        :meth:`call`."""
        self._telemetry.inc(self._calls_key, calls)

    def probe(
        self, fn: Callable[..., Any], *args: Any, default: Any = None, **kwargs: Any
    ) -> Any:
        """Like :meth:`call` but absorb degraded-mode failures.

        Returns ``default`` when the dependency is unavailable — the
        graceful path for periodic callers that must keep ticking
        through an outage.
        """
        try:
            return self.call(fn, *args, **kwargs)
        except DegradedModeError:
            self._inc("fallbacks")
            return default

    def _inc(self, what: str) -> None:
        self._telemetry.inc(self._keys[what])

    def __repr__(self) -> str:
        return f"Dependency({self.name!r})"
