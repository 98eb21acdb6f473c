"""Tests for spike and storm schedules."""

import pytest

from repro.workloads import SpikeSchedule, StormSchedule
from repro.workloads.diurnal import constant


class TestSpikes:
    def test_spike_multiplies_in_window(self):
        schedule = SpikeSchedule(constant(10.0))
        schedule.add(100.0, 200.0, factor=3.0)
        assert schedule.rate(50.0) == 10.0
        assert schedule.rate(150.0) == 30.0
        assert schedule.rate(200.0) == 10.0  # end exclusive

    def test_overlapping_spikes_compound(self):
        schedule = SpikeSchedule(constant(10.0))
        schedule.add(0.0, 100.0, factor=2.0)
        schedule.add(50.0, 150.0, factor=3.0)
        assert schedule.rate(75.0) == pytest.approx(60.0)

    def test_invalid_spike_rejected(self):
        schedule = SpikeSchedule(constant(1.0))
        with pytest.raises(ValueError):
            schedule.add(100.0, 100.0, factor=2.0)
        with pytest.raises(ValueError):
            schedule.add(0.0, 1.0, factor=-1.0)


class TestStorm:
    def test_surge_applies_during_storm(self):
        storm = StormSchedule(constant(100.0), start=10.0, end=20.0, surge=0.16)
        assert storm.rate(5.0) == 100.0
        assert storm.rate(15.0) == pytest.approx(116.0)
        assert storm.rate(25.0) == 100.0
        assert storm.active(15.0)
        assert not storm.active(25.0)

    def test_invalid_storm_rejected(self):
        with pytest.raises(ValueError):
            StormSchedule(constant(1.0), 10.0, 10.0)
        with pytest.raises(ValueError):
            StormSchedule(constant(1.0), 0.0, 1.0, surge=-0.5)
