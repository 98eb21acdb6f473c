"""Unit tests for the checkpoint store."""

import pytest

from repro.errors import ScribeError
from repro.scribe import CheckpointStore


def test_unknown_checkpoint_is_zero():
    assert CheckpointStore().get("job", "cat/0") == 0.0


def test_commit_and_get():
    store = CheckpointStore()
    store.commit("job", "cat/0", 100.0)
    assert store.get("job", "cat/0") == 100.0


def test_commit_moves_forward_only():
    store = CheckpointStore()
    store.commit("job", "cat/0", 100.0)
    with pytest.raises(ScribeError):
        store.commit("job", "cat/0", 99.0)


def test_commit_same_offset_allowed():
    """Idempotent re-commit is fine — the State Syncer retries actions."""
    store = CheckpointStore()
    store.commit("job", "cat/0", 100.0)
    store.commit("job", "cat/0", 100.0)
    assert store.get("job", "cat/0") == 100.0


def test_negative_offset_rejected():
    with pytest.raises(ScribeError):
        CheckpointStore().commit("job", "cat/0", -1.0)


@pytest.mark.parametrize("offset", [
    float("nan"), float("inf"), float("-inf"),
])
def test_non_finite_offset_rejected(offset):
    """``nan < 0`` is False: a sign check alone stores NaN and inf, and
    NaN even replaces a committed offset (the backwards check is False
    too)."""
    store = CheckpointStore()
    store.commit("job", "cat/0", 5.0)
    with pytest.raises(ScribeError):
        store.commit("job", "cat/0", offset)
    with pytest.raises(ScribeError):
        store.commit("job", "cat/1", offset)
    assert store.snapshot("job") == {"cat/0": 5.0}


def test_jobs_are_isolated():
    store = CheckpointStore()
    store.commit("job-a", "cat/0", 100.0)
    assert store.get("job-b", "cat/0") == 0.0


def test_partitions_of_sorted():
    store = CheckpointStore()
    store.commit("job", "cat/2", 1.0)
    store.commit("job", "cat/0", 1.0)
    assert store.partitions_of("job") == ["cat/0", "cat/2"]


def test_drop_job_forgets_everything():
    store = CheckpointStore()
    store.commit("job", "cat/0", 100.0)
    store.drop_job("job")
    assert store.get("job", "cat/0") == 0.0
    store.drop_job("job")  # idempotent


def test_snapshot_is_a_copy():
    store = CheckpointStore()
    store.commit("job", "cat/0", 100.0)
    snapshot = store.snapshot("job")
    snapshot["cat/0"] = 0.0
    assert store.get("job", "cat/0") == 100.0
