"""Retention caps on the in-memory audit trails.

Long soak simulations run the services for months of simulated time; every
append-only record list must be bounded, and windowed queries (like
``failovers_last_hour``) must stay correct inside the retained window.
"""

import repro.jobs.syncer
import repro.ops.health
import repro.scaler.capacity
import repro.tasks.shard_manager
from repro import PlatformConfig, Turbine
from repro.jobs.store import JobStore
from repro.jobs.syncer import StateSyncer
from repro.obs.bounded import BoundedList
from repro.ops.health import HealthReporter
from repro.scaler.capacity import CapacityManager
from repro.sim.engine import Engine
from repro.tasks.shard_manager import FailoverEvent, ShardManager


class _IdleActuator:
    def known_job_ids(self):
        return []


def test_syncer_round_history_is_bounded(monkeypatch):
    monkeypatch.setattr(repro.jobs.syncer, "ROUND_RETENTION", 3)
    syncer = StateSyncer(JobStore(), _IdleActuator())
    for __ in range(10):
        syncer.sync_once()
    assert len(syncer.rounds) <= 3
    assert isinstance(syncer.rounds, BoundedList)


def test_health_reports_and_alerts_are_bounded(monkeypatch):
    monkeypatch.setattr(repro.ops.health, "REPORT_RETENTION", 2)
    platform = Turbine.create(
        num_hosts=1, seed=5, config=PlatformConfig(num_shards=4)
    )
    platform.start()
    reporter = HealthReporter(
        platform.engine, platform.job_service, platform.task_service,
        platform.shard_manager, platform.metrics,
    )
    for __ in range(6):
        reporter.check_once()
    assert len(reporter.reports) <= 2
    assert reporter.reports[-1].time == platform.now


def test_capacity_events_are_bounded(monkeypatch):
    monkeypatch.setattr(repro.scaler.capacity, "EVENT_RETENTION", 7)
    manager = CapacityManager(None, None, None, None, None)
    assert isinstance(manager.events, BoundedList)
    assert manager.events.maxlen == 7


def test_failover_events_are_bounded(monkeypatch):
    monkeypatch.setattr(repro.tasks.shard_manager, "FAILOVER_RETENTION", 5)
    shard_manager = ShardManager(Engine(), num_shards=4)
    assert isinstance(shard_manager.failover_events, BoundedList)
    assert shard_manager.failover_events.maxlen == 5


def test_failovers_last_hour_correct_within_window():
    platform = Turbine.create(
        num_hosts=1, seed=5, config=PlatformConfig(num_shards=4)
    )
    platform.start()
    platform.run_for(hours=2)
    now = platform.now
    events = platform.shard_manager.failover_events
    events.append(FailoverEvent(now - 7200.0, "turbine-old", 1))
    events.append(FailoverEvent(now - 60.0, "turbine-recent", 1))
    reporter = HealthReporter(
        platform.engine, platform.job_service, platform.task_service,
        platform.shard_manager, platform.metrics,
    )
    assert reporter.report().failovers_last_hour == 1
