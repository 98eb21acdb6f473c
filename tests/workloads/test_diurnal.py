"""Tests for diurnal patterns and growth trends."""

import pytest

from repro.sim import SeededRng
from repro.workloads import DiurnalPattern
from repro.workloads.diurnal import DAY, constant, scaled


class TestDiurnalPattern:
    def test_rate_oscillates_around_base(self):
        pattern = DiurnalPattern(10.0, amplitude=0.3, daily_variation=0.0)
        rates = [pattern.rate(t) for t in range(0, int(DAY), 600)]
        assert min(rates) == pytest.approx(7.0, rel=0.01)
        assert max(rates) == pytest.approx(13.0, rel=0.01)

    def test_day_over_day_within_variation(self):
        """"normally similar — within 1% variation on aggregate — to the
        workload at the same time in prior days"."""
        pattern = DiurnalPattern(10.0, daily_variation=0.01, rng=SeededRng(4))
        for hour in (0, 6, 12, 18):
            today = pattern.rate(hour * 3600.0)
            yesterday = pattern.rate(hour * 3600.0 + DAY)
            assert abs(today - yesterday) / today < 0.025

    def test_deterministic_per_seed(self):
        a = DiurnalPattern(10.0, rng=SeededRng(9))
        b = DiurnalPattern(10.0, rng=SeededRng(9))
        times = [t * 1000.0 for t in range(50)]
        assert [a.rate(t) for t in times] == [b.rate(t) for t in times]

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            DiurnalPattern(-1.0)
        with pytest.raises(ValueError):
            DiurnalPattern(1.0, amplitude=1.0)

    def test_callable_interface(self):
        pattern = DiurnalPattern(10.0, daily_variation=0.0)
        assert pattern(0.0) == pattern.rate(0.0)


def test_constant_and_scaled():
    flat = constant(5.0)
    assert flat(123.0) == 5.0
    assert scaled(flat, 2.0)(0.0) == 10.0
    with pytest.raises(ValueError):
        constant(-1.0)
