"""Shared resilience policy kit (breakers, last-known-good, guarded edges).

See :mod:`repro.resilience.policy` for the rationale; components build
one :class:`Dependency` per call edge and route every cross-component
call through it.
"""

from repro.resilience.policy import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Dependency,
    LastKnownGood,
)

__all__ = [
    "CLOSED",
    "HALF_OPEN",
    "OPEN",
    "CircuitBreaker",
    "Dependency",
    "LastKnownGood",
]
