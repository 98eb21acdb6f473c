"""Unit tests for the event queue."""

import pytest

from repro.errors import SimulationError
from repro.sim import EventQueue


def test_empty_queue_is_falsy():
    queue = EventQueue()
    assert not queue
    assert len(queue) == 0
    assert queue.peek_time() is None


def test_pop_from_empty_raises():
    with pytest.raises(SimulationError):
        EventQueue().pop()


def test_events_pop_in_time_order():
    queue = EventQueue()
    order = []
    queue.push(3.0, lambda: order.append("c"))
    queue.push(1.0, lambda: order.append("a"))
    queue.push(2.0, lambda: order.append("b"))
    while queue:
        __, callback = queue.pop()
        callback()
    assert order == ["a", "b", "c"]


def test_same_time_events_fifo():
    """Ties break by scheduling order, keeping runs deterministic."""
    queue = EventQueue()
    order = []
    for label in "abcde":
        queue.push(1.0, lambda label=label: order.append(label))
    while queue:
        __, callback = queue.pop()
        callback()
    assert order == list("abcde")


def test_negative_time_rejected():
    with pytest.raises(SimulationError):
        EventQueue().push(-0.1, lambda: None)


def test_cancelled_event_is_skipped():
    queue = EventQueue()
    fired = []
    event = queue.push(1.0, lambda: fired.append("cancelled"))
    queue.push(2.0, lambda: fired.append("kept"))
    event.cancel()
    assert len(queue) == 1
    time, callback = queue.pop()
    callback()
    assert time == 2.0
    assert fired == ["kept"]


def test_peek_time_skips_cancelled_head():
    queue = EventQueue()
    event = queue.push(1.0, lambda: None)
    queue.push(5.0, lambda: None)
    event.cancel()
    assert queue.peek_time() == 5.0


class Unorderable:
    """A callback that raises if the heap ever compares it."""

    def __init__(self, fired, label):
        self.fired, self.label = fired, label

    def __call__(self):
        self.fired.append(self.label)

    def __lt__(self, other):
        raise AssertionError("the heap compared two callbacks")

    __gt__ = __le__ = __ge__ = __lt__


def test_same_instant_unorderable_callbacks_fire_in_scheduling_order():
    """The heap entry is ``(time, seq, event)``: the unique sequence number
    decides every tie, so neither the event nor its callback is compared."""
    queue = EventQueue()
    fired = []
    for label in range(50):
        queue.push(7.0, Unorderable(fired, label))
    queue.push(3.0, Unorderable(fired, "early"))
    while queue:
        __, callback = queue.pop()
        callback()
    assert fired == ["early", *range(50)]


def test_heap_entries_are_plain_tuples():
    """Heap comparisons run in C: no generated ``Event.__lt__``."""
    from repro.sim.events import Event

    queue = EventQueue()
    event = queue.push(2.0, lambda: None)
    assert queue._heap == [(2.0, event.seq, event)]
    assert "__lt__" not in vars(Event)


def test_len_and_truth_ignore_cancelled_entries():
    queue = EventQueue()
    events = [queue.push(float(t), lambda: None) for t in (1, 2, 3)]
    events[0].cancel()
    events[2].cancel()
    assert len(queue) == 1 and queue
    assert len(queue._heap) == 3  # lazily deleted: still stored
    events[1].cancel()
    assert len(queue) == 0 and not queue
    assert queue.peek_time() is None
    assert queue._heap == []  # peeking dropped the cancelled heads
