"""Unit tests for Scribe partitions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScribeError
from repro.scribe import Category


def fresh_partition():
    """``cat/0``: a handle on the one partition of a new category."""
    return Category("cat", 1).partitions[0]


def test_starts_empty():
    partition = fresh_partition()
    assert partition.head == 0.0
    assert partition.available(0.0) == 0.0


def test_append_advances_head():
    partition = fresh_partition()
    assert partition.append(100.0) == 100.0
    assert partition.append(50.0) == 150.0


def test_negative_append_rejected():
    with pytest.raises(ScribeError):
        fresh_partition().append(-1.0)


def test_available_from_offset():
    partition = fresh_partition()
    partition.append(100.0)
    assert partition.available(0.0) == 100.0
    assert partition.available(60.0) == 40.0
    assert partition.available(100.0) == 0.0


def test_offset_beyond_head_rejected():
    partition = fresh_partition()
    partition.append(10.0)
    with pytest.raises(ScribeError):
        partition.available(11.0)


def test_negative_offset_rejected():
    with pytest.raises(ScribeError):
        fresh_partition().available(-1.0)


@given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=30))
def test_head_is_sum_of_appends(appends):
    partition = fresh_partition()
    for num_bytes in appends:
        partition.append(num_bytes)
    assert partition.head == pytest.approx(sum(appends))


@pytest.mark.parametrize("num_bytes", [float("nan"), float("inf")])
def test_non_finite_append_rejected(num_bytes):
    """``nan < 0`` is False: a sign check alone let NaN and inf through."""
    partition = fresh_partition()
    partition.append(5.0)
    with pytest.raises(ScribeError):
        partition.append(num_bytes)
    assert partition.head == 5.0
