"""Unit tests for the counted call edge, :class:`repro.resilience.Dependency`."""

import pytest

from repro.errors import DegradedModeError
from repro.obs.telemetry import Telemetry
from repro.resilience import Dependency


def make_dep():
    telemetry = Telemetry(enabled=True)
    return Dependency("edge", telemetry), telemetry


def counter(telemetry, what):
    return telemetry.counters.get(f"resilience.edge.{what}", 0.0)


def test_call_passes_through_and_counts():
    dep, telemetry = make_dep()
    assert dep.call(lambda x: x + 1, 41) == 42
    assert counter(telemetry, "calls") == 1


def test_call_counts_and_reraises_degraded_failures():
    dep, telemetry = make_dep()
    calls = []

    def always_down():
        calls.append(1)
        raise DegradedModeError("down")

    with pytest.raises(DegradedModeError):
        dep.call(always_down)
    assert len(calls) == 1
    assert counter(telemetry, "calls") == 1
    assert counter(telemetry, "unavailable") == 1


def test_call_does_not_retry_unexpected_errors():
    dep, telemetry = make_dep()
    calls = []

    def broken():
        calls.append(1)
        raise ValueError("bug")

    with pytest.raises(ValueError):
        dep.call(broken)
    assert len(calls) == 1
    assert counter(telemetry, "failures") == 1


def test_probe_returns_default_and_counts_fallbacks():
    dep, telemetry = make_dep()

    def down():
        raise DegradedModeError("down")

    assert dep.probe(down, default="cached") == "cached"
    assert counter(telemetry, "fallbacks") == 1
    assert dep.probe(lambda: "live") == "live"


def test_counters_are_deterministic_instruments():
    from repro.obs.telemetry import is_deterministic_instrument

    for what in ("calls", "unavailable", "failures", "fallbacks"):
        assert is_deterministic_instrument(f"resilience.edge.{what}")


def test_call_pins_counters_and_their_order():
    """One scripted edge through success, two degraded failures, a
    non-degraded failure, recovery and two probe fallbacks: every
    counter value and the counters' insertion order."""
    dep, telemetry = make_dep()

    def down():
        raise DegradedModeError("down")

    def broken():
        raise ValueError("bug")

    assert dep.call(lambda: "ok") == "ok"
    for __ in range(2):
        with pytest.raises(DegradedModeError):
            dep.call(down)
    with pytest.raises(ValueError):
        dep.call(broken)
    assert dep.call(lambda: "back") == "back"
    for __ in range(2):
        assert dep.probe(down, default="cached") == "cached"

    assert list(telemetry.counters.items()) == [
        ("resilience.edge.calls", 7.0),
        ("resilience.edge.unavailable", 4.0),
        ("resilience.edge.failures", 1.0),
        ("resilience.edge.fallbacks", 2.0),
    ]
