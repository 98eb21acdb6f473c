"""Simulated time: ``Engine.now``, moved only by ``Engine.run_until``."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_starts_at_zero_by_default():
    assert Engine().now == 0.0


def test_advance_moves_forward():
    engine = Engine()
    engine.run_until(10)
    assert engine.now == 10.0 and type(engine.now) is float


def test_advance_to_same_time_is_noop():
    engine = Engine()
    engine.run_until(5.0)
    engine.run_until(5.0)
    assert engine.now == 5.0


def test_advance_backwards_rejected():
    """An event queued behind the current time (past ``call_at``'s check)
    would reorder delivered events: the run raises and time stays put."""
    engine = Engine()
    engine.run_until(10.0)
    engine.queue.push(9.999, lambda: None)
    with pytest.raises(SimulationError):
        engine.run_until(20.0)
    assert engine.now == 10.0


def test_now_is_read_only():
    engine = Engine()
    with pytest.raises(AttributeError):
        engine.now = 5.0
    assert engine.now == 0.0


def test_repr_mentions_time():
    engine = Engine()
    engine.run_until(3.0)
    assert "3.000" in repr(engine)
