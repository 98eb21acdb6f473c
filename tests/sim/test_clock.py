"""Unit tests for the simulation clock."""

import pytest

from repro.errors import SimulationError
from repro.sim import SimClock


def test_starts_at_zero_by_default():
    assert SimClock().now == 0.0


def test_advance_moves_forward():
    clock = SimClock()
    clock.advance_to(10.0)
    assert clock.now == 10.0


def test_advance_to_same_time_is_noop():
    clock = SimClock()
    clock.advance_to(5.0)
    clock.advance_to(5.0)
    assert clock.now == 5.0


def test_advance_backwards_rejected():
    clock = SimClock()
    clock.advance_to(10.0)
    with pytest.raises(SimulationError):
        clock.advance_to(9.999)


def test_repr_mentions_time():
    clock = SimClock()
    clock.advance_to(3.0)
    assert "3.000" in repr(clock)
