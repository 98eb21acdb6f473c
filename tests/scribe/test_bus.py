"""Unit tests for the Scribe bus."""

import pytest

from repro.errors import ScribeError
from repro.scribe import ScribeBus


def test_create_and_get():
    bus = ScribeBus()
    category = bus.create_category("ads", 4)
    assert bus.get_category("ads") is category


def test_duplicate_create_rejected():
    bus = ScribeBus()
    bus.create_category("ads", 4)
    with pytest.raises(ScribeError):
        bus.create_category("ads", 4)


def test_unknown_category_rejected():
    with pytest.raises(ScribeError):
        ScribeBus().get_category("nope")


def test_ensure_category_idempotent():
    bus = ScribeBus()
    first = bus.ensure_category("ads", 4)
    second = bus.ensure_category("ads", 8)  # partition count ignored on reuse
    assert first is second
    assert first.num_partitions == 4


def test_bus_has_checkpoint_store():
    bus = ScribeBus()
    bus.checkpoints.commit("job", "ads/0", 5.0)
    assert bus.checkpoints.get("job", "ads/0") == 5.0
