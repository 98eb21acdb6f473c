"""Unit tests for the seeded RNG helpers."""

from repro.sim import SeededRng


def test_same_seed_reproduces_sequence():
    a, b = SeededRng(7), SeededRng(7)
    assert [a.random() for _ in range(20)] == [b.random() for _ in range(20)]


def test_fork_streams_are_independent():
    parent = SeededRng(7)
    child_a = parent.fork("scribe")
    child_b = parent.fork("cluster")
    assert [child_a.random() for _ in range(5)] != [
        child_b.random() for _ in range(5)
    ]


def test_fork_is_deterministic():
    a = SeededRng(7).fork("scribe")
    b = SeededRng(7).fork("scribe")
    assert [a.random() for _ in range(5)] == [b.random() for _ in range(5)]


def test_uniform_within_bounds():
    rng = SeededRng(0)
    for _ in range(100):
        value = rng.uniform(2.0, 3.0)
        assert 2.0 <= value <= 3.0


def test_choice():
    items = ["a", "b", "c"]
    assert SeededRng(0).choice(items) in items


# ----------------------------------------------------------------------
# Fork independence and pickle stability
# ----------------------------------------------------------------------

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_partition_forks_pairwise_decoupled(seed):
    """Every pair of partition streams draws differently."""
    root = SeededRng(seed)
    streams = [root.fork(f"partition-{i}") for i in range(6)]
    draws = [tuple(s.random() for _ in range(8)) for s in streams]
    for i in range(len(draws)):
        for j in range(i + 1, len(draws)):
            assert draws[i] != draws[j], (i, j)


@settings(max_examples=50, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    index=st.integers(min_value=0, max_value=63),
)
def test_partition_fork_reproducible_from_scratch(seed, index):
    """fork(label) is a pure function of (seed, label)."""
    a = SeededRng(seed).fork(f"partition-{index}")
    b = SeededRng(seed).fork(f"partition-{index}")
    assert [a.random() for _ in range(10)] == [
        b.random() for _ in range(10)
    ]


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_forking_does_not_perturb_parent(seed):
    """A partition fork must not consume parent entropy."""
    plain = SeededRng(seed)
    forked = SeededRng(seed)
    forked.fork("partition-0")
    forked.fork("partition-1")
    assert [plain.random() for _ in range(10)] == [
        forked.random() for _ in range(10)
    ]


@settings(max_examples=30, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    consumed=st.integers(min_value=0, max_value=20),
)
def test_forked_rng_survives_pickle_mid_stream(seed, consumed):
    """A pickled rng continues the same stream: one that had already
    drawn ``consumed`` values resumes at draw ``consumed + 1``, not at
    the start."""
    original = SeededRng(seed).fork("partition-3")
    for _ in range(consumed):
        original.random()
    clone = pickle.loads(pickle.dumps(original))
    assert [original.random() for _ in range(10)] == [
        clone.random() for _ in range(10)
    ]


def test_fork_labels_differ_from_sibling_namespaces():
    root = SeededRng(7)
    assert [root.fork("partition-1").random() for _ in range(5)] != [
        root.fork("partition-10").random() for _ in range(5)
    ]
