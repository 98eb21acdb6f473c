"""Tests for the traffic driver."""

import pytest

from repro.scribe import ScribeBus
from repro.sim import Engine
from repro.workloads import TrafficDriver
from repro.workloads.diurnal import constant


def setup(tick=60.0):
    engine = Engine()
    scribe = ScribeBus()
    scribe.create_category("cat", 4)
    driver = TrafficDriver(engine, scribe, tick=tick)
    return engine, scribe, driver


def test_appends_rate_times_dt():
    engine, scribe, driver = setup()
    driver.add_source("cat", constant(2.0))
    driver.start()
    engine.run_until(600.0)
    assert scribe.get_category("cat").total_head() == pytest.approx(1200.0)
    assert driver.total_appended_mb("cat") == pytest.approx(1200.0)


def test_multiple_sources_tracked_separately():
    engine, scribe, driver = setup()
    scribe.create_category("other", 2)
    driver.add_source("cat", constant(1.0))
    driver.add_source("other", constant(3.0))
    driver.start()
    engine.run_until(120.0)
    assert driver.total_appended_mb("cat") == pytest.approx(120.0)
    assert driver.total_appended_mb("other") == pytest.approx(360.0)
    assert driver.total_appended_mb() == pytest.approx(480.0)


def test_duplicate_source_rejected():
    engine, scribe, driver = setup()
    driver.add_source("cat", constant(1.0))
    with pytest.raises(ValueError):
        driver.add_source("cat", constant(1.0))


def test_stop_halts_traffic():
    engine, scribe, driver = setup()
    driver.add_source("cat", constant(1.0))
    driver.start()
    engine.run_until(120.0)
    driver.stop()
    engine.run_until(600.0)
    assert driver.total_appended_mb() == pytest.approx(120.0)


def test_negative_rate_clamped():
    engine, scribe, driver = setup()
    driver.add_source("cat", lambda t: -5.0)
    driver.start()
    engine.run_until(120.0)
    assert scribe.get_category("cat").total_head() == 0.0


def test_invalid_tick_rejected():
    engine = Engine()
    with pytest.raises(ValueError):
        TrafficDriver(engine, ScribeBus(), tick=0.0)


def test_remove_source():
    engine, scribe, driver = setup()
    driver.add_source("cat", constant(1.0))
    driver.remove_source("cat")
    driver.start()
    engine.run_until(120.0)
    assert driver.total_appended_mb() == 0.0
