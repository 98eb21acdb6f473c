"""Float sums that decide something add left to right on every interpreter.

CPython 3.12 compensates a float ``sum()`` (Neumaier); 3.9 – 3.11 add in
order. The loads below sum to ``0.47368421052631593`` in order and to
``0.4736842105263159`` compensated, which is enough to move the
balancer's band test and the head total. Every test here passes on each
interpreter only if the sum is the in-order one.
"""

from repro.scribe.bus import ScribeBus
from repro.scribe.category import Category
from repro.tasks.balancer import _rebalance_within_band
from repro.types import sum_in_order

LOADS = [0.15, 0.15000000000000002, 0.17368421052631586]
IN_ORDER = 0.47368421052631593


def test_the_loads_sum_in_order():
    total = 0
    for load in LOADS:
        total += load
    assert total == IN_ORDER
    assert sum_in_order(LOADS) == IN_ORDER
    assert sum_in_order([]) == 0


def test_loads_inside_the_band_move_no_shard():
    container_load = dict(zip("abc", LOADS))
    shards_on = {"a": ["s1"], "b": ["s2"], "c": ["s3", "s4"]}
    scalar_loads = {"s1": 0.15, "s2": 0.15, "s3": 0.15, "s4": 0.02}
    placed = {"s1": "a", "s2": "b", "s3": "c", "s4": "c"}
    moves = []
    _rebalance_within_band(
        container_load, shards_on, scalar_loads, placed, moves, 0.1,
    )
    assert moves == []
    assert placed["s4"] == "c"


def test_total_head_equals_the_one_walk_head_total():
    scribe = ScribeBus()
    category = scribe.create_category("cat", len(LOADS))
    category.heads[:] = LOADS
    head, __ = scribe.checkpoints.head_and_lag_mb(
        "job", category, range(len(LOADS))
    )
    assert category.total_head() == head == IN_ORDER


def test_weights_normalize_by_the_in_order_total():
    category = Category("cat", len(LOADS))
    category.set_weights(LOADS)
    assert category._weights == [load / IN_ORDER for load in LOADS]
