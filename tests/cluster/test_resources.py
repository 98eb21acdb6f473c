"""Unit and property tests for ResourceVector."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cluster import ResourceVector

finite = st.floats(
    min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False
)
vectors = st.builds(ResourceVector, cpu=finite, memory_gb=finite, disk_gb=finite)


def test_zero_is_identity():
    v = ResourceVector(cpu=1.0, memory_gb=2.0)
    assert v + ResourceVector.zero() == v


def test_addition_componentwise():
    a = ResourceVector(cpu=1.0, memory_gb=2.0, disk_gb=3.0, network_mbps=4.0)
    b = ResourceVector(cpu=10.0, memory_gb=20.0, disk_gb=30.0, network_mbps=40.0)
    total = a + b
    assert total == ResourceVector(11.0, 22.0, 33.0, 44.0)


def test_subtraction_can_go_negative():
    a = ResourceVector(cpu=1.0)
    b = ResourceVector(cpu=2.0)
    assert (a - b).cpu == -1.0
    assert (a - b).any_negative()


def test_clamped_non_negative():
    v = ResourceVector(cpu=-1.0, memory_gb=2.0)
    clamped = v.clamped_non_negative()
    assert clamped.cpu == 0.0
    assert clamped.memory_gb == 2.0


def test_scaled():
    v = ResourceVector(cpu=2.0, memory_gb=4.0)
    assert v.scaled(0.5) == ResourceVector(cpu=1.0, memory_gb=2.0)


def test_fits_within():
    small = ResourceVector(cpu=1.0, memory_gb=1.0)
    big = ResourceVector(cpu=2.0, memory_gb=2.0)
    assert small.fits_within(big)
    assert not big.fits_within(small)
    assert small.fits_within(small), "a vector fits within itself"


def test_utilization_is_dominant_share():
    load = ResourceVector(cpu=1.0, memory_gb=8.0)
    cap = ResourceVector(cpu=4.0, memory_gb=16.0)
    assert load.utilization_of(cap) == pytest.approx(0.5)  # memory dominates


def test_utilization_skips_zero_capacity_dimensions():
    load = ResourceVector(cpu=1.0)
    cap = ResourceVector(cpu=2.0)  # memory/disk/network capacity are zero
    assert load.utilization_of(cap) == pytest.approx(0.5)


def test_utilization_of_zero_capacity_is_zero():
    assert ResourceVector(cpu=1.0).utilization_of(ResourceVector.zero()) == 0.0


def test_dict_round_trip():
    v = ResourceVector(cpu=1.5, memory_gb=2.5, disk_gb=3.5, network_mbps=4.5)
    assert ResourceVector.from_dict(v.as_dict()) == v


def test_from_dict_partial_defaults_to_zero():
    v = ResourceVector.from_dict({"cpu": 2.0})
    assert v == ResourceVector(cpu=2.0)


def test_from_dict_unknown_dimension_rejected():
    with pytest.raises(ValueError):
        ResourceVector.from_dict({"gpu": 1.0})


def test_repr_compact():
    assert "cpu=1" in repr(ResourceVector(cpu=1.0))
    assert repr(ResourceVector.zero()) == "ResourceVector(0)"


class TestProperties:
    @given(vectors, vectors)
    def test_addition_commutes(self, a, b):
        assert a + b == b + a

    @given(vectors, vectors, vectors)
    def test_addition_associates(self, a, b, c):
        left = (a + b) + c
        right = a + (b + c)
        for (__, lv), (__, rv) in zip(left.items(), right.items()):
            assert lv == pytest.approx(rv)

    @given(vectors, vectors)
    def test_sum_fits_within_itself(self, a, b):
        assert a.fits_within(a + b)

    @given(vectors)
    def test_sub_then_add_recovers(self, a):
        b = ResourceVector(cpu=1.0, memory_gb=1.0)
        recovered = (a - b) + b
        for (__, orig), (__, rec) in zip(a.items(), recovered.items()):
            assert orig == pytest.approx(rec, abs=1e-6)

    @given(vectors)
    def test_utilization_at_capacity_is_one(self, v):
        if v != ResourceVector.zero():
            assert v.utilization_of(v) == pytest.approx(1.0)

    @given(vectors, st.floats(min_value=0.0, max_value=100.0))
    def test_scaling_is_linear_in_utilization(self, v, factor):
        cap = ResourceVector(cpu=100.0, memory_gb=100.0, disk_gb=100.0,
                             network_mbps=100.0)
        base = v.utilization_of(cap)
        assert v.scaled(factor).utilization_of(cap) == pytest.approx(
            base * factor, rel=1e-6, abs=1e-9
        )
