"""Unit tests for Scribe categories."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import ScribeError
from repro.scribe import Category


def test_partitions_named_by_category():
    category = Category("ads", 3)
    assert [p.partition_id for p in category.partitions] == [
        "ads/0", "ads/1", "ads/2",
    ]


def test_zero_partitions_rejected():
    with pytest.raises(ScribeError):
        Category("ads", 0)


def test_uniform_append_splits_evenly():
    category = Category("ads", 4)
    category.append(100.0)
    assert all(p.head == pytest.approx(25.0) for p in category.partitions)
    assert category.total_head() == pytest.approx(100.0)


def test_weighted_append_skews_traffic():
    category = Category("ads", 2)
    category.set_weights([3.0, 1.0])
    category.append(100.0)
    assert category.partitions[0].head == pytest.approx(75.0)
    assert category.partitions[1].head == pytest.approx(25.0)


def test_weights_reset_to_uniform():
    category = Category("ads", 2)
    category.set_weights([1.0, 0.0])
    category.set_weights(None)
    category.append(100.0)
    assert category.partitions[1].head == pytest.approx(50.0)


def test_wrong_weight_count_rejected():
    category = Category("ads", 3)
    with pytest.raises(ScribeError):
        category.set_weights([1.0, 2.0])


def test_negative_weight_rejected():
    with pytest.raises(ScribeError):
        Category("ads", 2).set_weights([1.0, -1.0])


def test_all_zero_weights_rejected():
    with pytest.raises(ScribeError):
        Category("ads", 2).set_weights([0.0, 0.0])


def owned(category, task_index, task_count):
    """The partitions task ``task_index`` of ``task_count`` reads."""
    return [
        category.partitions[index]
        for index in category.slice_indices(task_index, task_count)
    ]


class TestPartitionSlices:
    def test_slices_are_disjoint_and_complete(self):
        """Every partition is owned by exactly one task — the core data-model
        property that makes task recovery independent (paper section II)."""
        category = Category("ads", 10)
        task_count = 3
        seen = []
        for task_index in range(task_count):
            seen.extend(
                p.partition_id
                for p in owned(category, task_index, task_count)
            )
        assert sorted(seen) == [p.partition_id for p in category.partitions]
        assert len(seen) == len(set(seen))

    def test_round_robin_assignment(self):
        category = Category("ads", 5)
        slice_0 = owned(category, 0, 2)
        assert [p.partition_id for p in slice_0] == ["ads/0", "ads/2", "ads/4"]

    def test_more_tasks_than_partitions_leaves_some_idle(self):
        category = Category("ads", 2)
        assert owned(category, 2, 4) == []

    def test_bad_index_rejected(self):
        category = Category("ads", 4)
        with pytest.raises(ScribeError):
            owned(category, 2, 2)
        with pytest.raises(ScribeError):
            owned(category, -1, 2)
        with pytest.raises(ScribeError):
            owned(category, 0, 0)

    @given(
        st.integers(min_value=1, max_value=64),
        st.integers(min_value=1, max_value=64),
    )
    def test_slices_partition_the_category(self, num_partitions, task_count):
        category = Category("c", num_partitions)
        ids = []
        for task_index in range(task_count):
            ids.extend(
                p.partition_id
                for p in owned(category, task_index, task_count)
            )
        assert sorted(ids) == sorted(p.partition_id for p in category.partitions)


class TestFlatAppend:
    """``Category.append`` adds each share to ``partition.head`` in place;
    every head must be bit-identical to appending the same share through
    :meth:`Partition.append`, partition by partition."""

    @given(st.data())
    def test_heads_equal_per_partition_appends(self, data):
        num_partitions = data.draw(st.integers(min_value=1, max_value=12))
        byte_counts = st.floats(min_value=0.0, max_value=1e12, allow_nan=False)
        weight_lists = st.lists(
            st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
            min_size=num_partitions, max_size=num_partitions,
        ).filter(lambda weights: sum(weights) > 0)
        category = Category("c", num_partitions)
        reference = Category("ref", num_partitions).partitions
        for __ in range(data.draw(st.integers(min_value=1, max_value=8))):
            weights = data.draw(st.none() | weight_lists)
            category.set_weights(weights)
            for num_bytes in data.draw(st.lists(byte_counts, max_size=6)):
                category.append(num_bytes)
                if weights is None:
                    shares = [num_bytes / num_partitions] * num_partitions
                else:
                    total = sum(weights)
                    shares = [num_bytes * (weight / total) for weight in weights]
                for partition, share in zip(reference, shares):
                    partition.append(share)
                assert [p.head.hex() for p in category.partitions] == [
                    p.head.hex() for p in reference
                ]

    @given(
        st.floats(min_value=1e-300, max_value=1e12),
        st.none() | st.just([2.0, 1.0, 0.0]),
    )
    def test_negative_bytes_raise_and_leave_every_head(self, num_bytes, weights):
        category = Category("c", 3)
        category.set_weights(weights)
        category.append(7.0)
        before = [p.head for p in category.partitions]
        with pytest.raises(ScribeError):
            category.append(-num_bytes)
        assert [p.head for p in category.partitions] == before


class TestNonFiniteInput:
    """A NaN or infinite byte count or weight used to reach every head
    (``nan < 0`` is False), so a reading job's lag went NaN and its step
    silently committed nothing. Each is refused and changes nothing."""

    @pytest.mark.parametrize("num_bytes", [float("nan"), float("inf")])
    @pytest.mark.parametrize("weights", [None, [2.0, 1.0, 0.0]])
    def test_non_finite_bytes_raise_and_leave_every_head(self, num_bytes, weights):
        category = Category("c", 3)
        category.set_weights(weights)
        category.append(7.0)
        before = [p.head for p in category.partitions]
        with pytest.raises(ScribeError):
            category.append(num_bytes)
        assert [p.head for p in category.partitions] == before

    @pytest.mark.parametrize("weights", [
        [float("nan"), 1.0], [float("inf"), 1.0],
        [1e308, 1e308],  # finite weights whose sum is not
    ])
    def test_non_finite_weights_raise_and_keep_the_split(self, weights):
        category = Category("c", 2)
        category.set_weights([3.0, 1.0])
        with pytest.raises(ScribeError):
            category.set_weights(weights)
        category.append(100.0)
        assert [p.head for p in category.partitions] == [75.0, 25.0]

    def test_a_reading_job_keeps_a_finite_lag(self):
        from repro.scribe import ScribeBus

        bus = ScribeBus()
        category = bus.create_category("c", 2)
        category.append(10.0)
        with pytest.raises(ScribeError):
            category.append(float("nan"))
        assert bus.backlog_mb("job", "c") == 10.0
