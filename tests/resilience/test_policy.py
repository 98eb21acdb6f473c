"""Unit tests for the shared resilience policy kit."""

import pytest

from repro.errors import CircuitOpenError, DegradedModeError
from repro.obs.telemetry import Telemetry
from repro.resilience import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
    Dependency,
    LastKnownGood,
)


class Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


# ----------------------------------------------------------------------
# CircuitBreaker
# ----------------------------------------------------------------------
def test_breaker_opens_after_threshold():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=30.0)
    for __ in range(2):
        breaker.record_failure(now=0.0)
        assert breaker.state == CLOSED
    breaker.record_failure(now=0.0)
    assert breaker.state == OPEN
    assert breaker.times_opened == 1
    assert not breaker.allows(now=10.0)


def test_breaker_half_opens_after_timeout_and_closes_on_success():
    breaker = CircuitBreaker(failure_threshold=1, reset_timeout=30.0)
    breaker.record_failure(now=0.0)
    assert not breaker.allows(now=29.0)
    assert breaker.allows(now=30.0)   # the probe goes through
    assert breaker.state == HALF_OPEN
    breaker.record_success()
    assert breaker.state == CLOSED
    assert breaker.allows(now=31.0)


def test_breaker_half_open_failure_reopens_immediately():
    breaker = CircuitBreaker(failure_threshold=3, reset_timeout=10.0)
    for __ in range(3):
        breaker.record_failure(now=0.0)
    assert breaker.allows(now=10.0)
    breaker.record_failure(now=10.0)  # one probe failure suffices
    assert breaker.state == OPEN
    assert breaker.times_opened == 2
    assert not breaker.allows(now=15.0)


def test_breaker_validation():
    with pytest.raises(ValueError):
        CircuitBreaker(failure_threshold=0)


# ----------------------------------------------------------------------
# LastKnownGood
# ----------------------------------------------------------------------
def test_lkg_empty_then_stored():
    lkg = LastKnownGood()
    assert not lkg.has_value
    assert lkg.get(default="fallback") == "fallback"
    assert lkg.age(now=100.0) == float("inf")
    lkg.store({"a": 1}, now=50.0)
    assert lkg.has_value
    assert lkg.get() == {"a": 1}
    assert lkg.age(now=80.0) == 30.0


# ----------------------------------------------------------------------
# Dependency
# ----------------------------------------------------------------------
def make_dep(**kwargs):
    clock = Clock()
    telemetry = Telemetry(enabled=True)
    dep = Dependency("edge", clock=clock, telemetry=telemetry, **kwargs)
    return dep, clock, telemetry


def counter(telemetry, what):
    return telemetry.counters.get(f"resilience.edge.{what}", 0.0)


def test_call_passes_through_and_counts():
    dep, __, telemetry = make_dep()
    assert dep.call(lambda x: x + 1, 41) == 42
    assert counter(telemetry, "calls") == 1
    assert dep.last_error is None


def test_call_counts_and_reraises_degraded_failures():
    dep, __, telemetry = make_dep()
    calls = []

    def always_down():
        calls.append(1)
        raise DegradedModeError("down")

    with pytest.raises(DegradedModeError):
        dep.call(always_down)
    assert len(calls) == 1
    assert counter(telemetry, "calls") == 1
    assert counter(telemetry, "unavailable") == 1
    assert isinstance(dep.last_error, DegradedModeError)


def test_call_does_not_retry_unexpected_errors():
    dep, __, telemetry = make_dep()
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("bug")

    with pytest.raises(ValueError):
        dep.call(broken)
    assert len(calls) == 1
    assert counter(telemetry, "failures") == 1


def test_breaker_short_circuits_and_half_open_probe_recovers():
    dep, clock, telemetry = make_dep(
        breaker=CircuitBreaker(failure_threshold=2, reset_timeout=30.0)
    )

    def down():
        raise DegradedModeError("down")

    for __ in range(2):
        with pytest.raises(DegradedModeError):
            dep.call(down)
    assert counter(telemetry, "breaker_opened") == 1
    # While open: short-circuited without touching the service.
    with pytest.raises(CircuitOpenError):
        dep.call(lambda: "never called")
    assert counter(telemetry, "short_circuits") == 1
    # After the reset timeout the next call is the probe.
    clock.now = 30.0
    assert dep.call(lambda: "recovered") == "recovered"
    assert dep.breaker.state == CLOSED


def test_probe_returns_default_and_counts_fallbacks():
    dep, __, telemetry = make_dep()

    def down():
        raise DegradedModeError("down")

    assert dep.probe(down, default="cached") == "cached"
    assert counter(telemetry, "fallbacks") == 1
    assert dep.probe(lambda: "live") == "live"


def test_probe_swallows_open_breaker():
    dep, __, __tel = make_dep(
        breaker=CircuitBreaker(failure_threshold=1, reset_timeout=300.0)
    )
    with pytest.raises(DegradedModeError):
        dep.call(lambda: (_ for _ in ()).throw(DegradedModeError("x")))
    assert dep.probe(lambda: "ignored", default=None) is None


def test_counters_are_deterministic_instruments():
    from repro.obs.telemetry import is_deterministic_instrument

    for what in ("calls", "unavailable", "failures",
                 "short_circuits", "breaker_opened", "fallbacks"):
        assert is_deterministic_instrument(f"resilience.edge.{what}")


class CountingClock(Clock):
    def __init__(self):
        super().__init__()
        self.reads = 0

    def __call__(self):
        self.reads += 1
        return self.now


def test_call_pins_counters_last_error_and_breaker_states():
    """One scripted edge through success, two degraded failures (opening
    the breaker), a short circuit, a non-degraded failure of the
    half-open probe, recovery and two probe fallbacks: every counter
    value, the counters' insertion order, ``last_error`` and the breaker
    state after each step."""
    clock = Clock()
    telemetry = Telemetry(enabled=True)
    breaker = CircuitBreaker(failure_threshold=2, reset_timeout=30.0)
    dep = Dependency(
        "edge", clock=clock, telemetry=telemetry, breaker=breaker,
    )
    errors = []

    def down():
        errors.append(DegradedModeError("down"))
        raise errors[-1]

    def broken():
        errors.append(ValueError("bug"))
        raise errors[-1]

    assert dep.call(lambda: "ok") == "ok"
    assert (dep.last_error, breaker.state) == (None, CLOSED)

    clock.now = 1.0
    with pytest.raises(DegradedModeError):
        dep.call(down)
    assert (dep.last_error, breaker.state) == (errors[0], CLOSED)
    with pytest.raises(DegradedModeError):
        dep.call(down)
    assert dep.last_error is errors[1]
    assert (breaker.state, breaker.opened_at) == (OPEN, 1.0)

    clock.now = 2.0
    with pytest.raises(CircuitOpenError):
        dep.call(lambda: "never called")
    assert dep.last_error is errors[1]

    clock.now = 31.0
    with pytest.raises(ValueError):
        dep.call(broken)
    assert dep.last_error is errors[2]
    assert (breaker.state, breaker.opened_at) == (OPEN, 31.0)

    clock.now = 61.0
    assert dep.call(lambda: "back") == "back"
    assert (dep.last_error, breaker.state) == (None, CLOSED)

    clock.now = 62.0
    for __ in range(2):
        assert dep.probe(down, default="cached") == "cached"
    assert dep.last_error is errors[4]
    assert (breaker.state, breaker.times_opened) == (OPEN, 3)

    assert list(telemetry.counters.items()) == [
        ("resilience.edge.calls", 7.0),
        ("resilience.edge.unavailable", 4.0),
        ("resilience.edge.breaker_opened", 3.0),
        ("resilience.edge.short_circuits", 1.0),
        ("resilience.edge.failures", 1.0),
        ("resilience.edge.fallbacks", 2.0),
    ]


def test_breakerless_success_never_reads_the_clock():
    clock = CountingClock()
    dep = Dependency("edge", clock=clock, telemetry=Telemetry(enabled=True))
    for __ in range(3):
        assert dep.call(lambda: "ok") == "ok"
    assert clock.reads == 0
    guarded = Dependency(
        "edge", clock=clock, breaker=CircuitBreaker(failure_threshold=1),
    )
    guarded.call(lambda: "ok")
    assert clock.reads == 1
