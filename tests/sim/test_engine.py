"""Unit tests for the discrete-event engine and periodic timers."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


def test_call_in_fires_at_right_time():
    engine = Engine()
    seen = []
    engine.call_in(5.0, lambda: seen.append(engine.now))
    engine.run_until(10.0)
    assert seen == [5.0]
    assert engine.now == 10.0


def test_call_at_absolute_time():
    engine = Engine()
    seen = []
    engine.call_at(7.5, lambda: seen.append(engine.now))
    engine.run_until(7.5)
    assert seen == [7.5]


def test_call_at_in_the_past_rejected():
    engine = Engine()
    engine.run_until(10.0)
    with pytest.raises(SimulationError):
        engine.call_at(5.0, lambda: None)


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Engine().call_in(-1.0, lambda: None)


def test_run_until_excludes_later_events():
    engine = Engine()
    seen = []
    engine.call_in(5.0, lambda: seen.append("early"))
    engine.call_in(15.0, lambda: seen.append("late"))
    engine.run_until(10.0)
    assert seen == ["early"]
    engine.run_until(20.0)
    assert seen == ["early", "late"]


def test_run_until_event_exactly_on_deadline_fires():
    engine = Engine()
    seen = []
    engine.call_in(10.0, lambda: seen.append("on-deadline"))
    engine.run_until(10.0)
    assert seen == ["on-deadline"]


def test_run_for_advances_relative():
    engine = Engine()
    engine.run_for(3.0)
    engine.run_for(4.0)
    assert engine.now == 7.0


def test_run_until_past_deadline_rejected():
    engine = Engine()
    engine.run_until(10.0)
    with pytest.raises(SimulationError):
        engine.run_until(5.0)


def test_reentrant_run_rejected():
    engine = Engine()
    engine.call_in(1.0, lambda: engine.run_until(20.0))
    with pytest.raises(SimulationError):
        engine.run_until(10.0)


def test_events_scheduled_during_run_are_delivered():
    engine = Engine()
    seen = []

    def chain():
        seen.append(engine.now)
        if engine.now < 3.0:
            engine.call_in(1.0, chain)

    engine.call_in(1.0, chain)
    engine.run_until(10.0)
    assert seen == [1.0, 2.0, 3.0]


class TestTimer:
    def test_periodic_firing(self):
        engine = Engine()
        times = []
        engine.every(10.0, lambda: times.append(engine.now))
        engine.run_until(35.0)
        assert times == [10.0, 20.0, 30.0]

    def test_initial_delay_overrides_first_firing(self):
        engine = Engine()
        times = []
        engine.every(10.0, lambda: times.append(engine.now), initial_delay=1.0)
        engine.run_until(25.0)
        assert times == [1.0, 11.0, 21.0]

    def test_cancel_stops_firing(self):
        engine = Engine()
        times = []
        timer = engine.every(10.0, lambda: times.append(engine.now))
        engine.run_until(25.0)
        timer.cancel()
        engine.run_until(100.0)
        assert times == [10.0, 20.0]
        assert not timer.active

    def test_zero_interval_rejected(self):
        with pytest.raises(SimulationError):
            Engine().every(0.0, lambda: None)

    def test_callback_exception_does_not_kill_timer(self):
        engine = Engine()
        fires = []

        def flaky():
            fires.append(engine.now)
            if len(fires) == 1:
                raise RuntimeError("transient")

        engine.every(10.0, flaky)
        with pytest.raises(RuntimeError):
            engine.run_until(10.0)
        # Timer re-armed itself before the callback ran.
        engine.run_until(25.0)
        assert fires == [10.0, 20.0]

    def test_fire_count_tracks_firings(self):
        engine = Engine()
        timer = engine.every(5.0, lambda: None)
        engine.run_until(22.0)
        assert timer.fire_count == 4


class TestTimerAsQueueEntry:
    """A pending timer is its own heap entry: ``(time, seq)`` order and
    lazy cancellation are those of a one-shot event."""

    def test_a_timer_and_a_one_shot_event_at_one_instant_fire_in_scheduling_order(self):
        engine = Engine()
        fired = []
        engine.call_at(10.0, lambda: fired.append("event-before"))
        engine.every(10.0, lambda: fired.append(f"timer@{engine.now:g}"))
        engine.call_at(10.0, lambda: fired.append("event-after"))
        # Scheduled before the timer re-arms at t=10 for t=20.
        engine.call_at(20.0, lambda: fired.append("event@20"))
        engine.run_until(20.0)
        assert fired == [
            "event-before", "timer@10", "event-after", "event@20", "timer@20",
        ]

    def test_a_cancelled_timers_heap_entry_is_skipped(self):
        engine = Engine()
        fired = []
        timer = engine.every(10.0, lambda: fired.append(engine.now))
        engine.call_at(15.0, lambda: fired.append("event"))
        engine.run_until(10.0)
        timer.cancel()
        assert [entry for __, __, entry in engine.queue._heap].count(timer) == 1
        assert engine.queue.peek_time() == 15.0
        engine.run_until(100.0)
        assert fired == [10.0, "event"]
        assert engine.queue.peek_time() is None and engine.queue._heap == []

    def test_len_counts_a_timer_until_it_is_cancelled(self):
        engine = Engine()
        timer = engine.every(10.0, lambda: None)
        engine.call_at(5.0, lambda: None)
        assert len(engine.queue) == 2 and engine.queue
        engine.run_until(30.0)
        assert len(engine.queue) == 1
        assert engine.queue._heap[0][2] is timer  # the re-armed timer itself
        timer.cancel()
        assert len(engine.queue) == 0 and not engine.queue
        assert len(engine.queue._heap) == 1  # lazily deleted: still stored


class TestDeterminism:
    def test_same_seed_same_draws(self):
        a, b = Engine(seed=42), Engine(seed=42)
        draws_a = [a.rng.random() for _ in range(10)]
        draws_b = [b.rng.random() for _ in range(10)]
        assert draws_a == draws_b

    def test_different_seed_different_draws(self):
        a, b = Engine(seed=1), Engine(seed=2)
        assert [a.rng.random() for _ in range(10)] != [
            b.rng.random() for _ in range(10)
        ]



class TestNonFiniteTimes:
    """NaN compares false both ways and ±inf is never reached, so a
    range check written as ``if x < 0: raise`` lets both through: a NaN
    deadline on a busy queue never returns (``next_time > nan`` is never
    true) and on an empty one leaves ``now == nan``."""

    BAD = [float("nan"), float("inf"), float("-inf")]

    @pytest.mark.parametrize("deadline", BAD)
    def test_run_until_rejects_a_non_finite_deadline(self, deadline):
        engine = Engine()  # empty queue: a NaN deadline cannot hang here
        with pytest.raises(SimulationError):
            engine.run_until(deadline)
        assert engine.now == 0.0

    @pytest.mark.parametrize("duration", BAD)
    def test_run_for_rejects_a_non_finite_duration(self, duration):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.run_for(duration)
        assert engine.now == 0.0

    @pytest.mark.parametrize("value", BAD)
    def test_scheduling_rejects_a_non_finite_time(self, value):
        engine = Engine()
        with pytest.raises(SimulationError):
            engine.call_in(value, lambda: None)
        with pytest.raises(SimulationError):
            engine.call_at(value, lambda: None)
        with pytest.raises(SimulationError):
            engine.every(value, lambda: None)
        with pytest.raises(SimulationError):
            engine.every(1.0, lambda: None, initial_delay=value)
        assert len(engine.queue) == 0
