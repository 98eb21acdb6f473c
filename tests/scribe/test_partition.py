"""Unit tests for Scribe partitions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScribeError
from repro.scribe import Partition


def test_starts_empty():
    partition = Partition("cat/0")
    assert partition.head == 0.0
    assert partition.available(0.0) == 0.0


def test_append_advances_head():
    partition = Partition("cat/0")
    assert partition.append(100.0) == 100.0
    assert partition.append(50.0) == 150.0


def test_negative_append_rejected():
    with pytest.raises(ScribeError):
        Partition("cat/0").append(-1.0)


def test_available_from_offset():
    partition = Partition("cat/0")
    partition.append(100.0)
    assert partition.available(0.0) == 100.0
    assert partition.available(60.0) == 40.0
    assert partition.available(100.0) == 0.0


def test_offset_beyond_head_rejected():
    partition = Partition("cat/0")
    partition.append(10.0)
    with pytest.raises(ScribeError):
        partition.available(11.0)


def test_negative_offset_rejected():
    with pytest.raises(ScribeError):
        Partition("cat/0").available(-1.0)


@given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=30))
def test_head_is_sum_of_appends(appends):
    partition = Partition("cat/0")
    for num_bytes in appends:
        partition.append(num_bytes)
    assert partition.head == pytest.approx(sum(appends))
