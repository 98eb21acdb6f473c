"""Unit tests for failure injection."""

import pytest

from repro.cluster import FailureInjector, FailurePlan, TupperwareCluster
from repro.sim import Engine


def setup():
    engine = Engine(seed=1)
    cluster = TupperwareCluster()
    for index in range(5):
        cluster.add_host(f"host-{index}")
    return engine, cluster, FailureInjector(engine, cluster)


def test_scripted_failure_and_recovery():
    engine, cluster, injector = setup()
    injector.schedule(FailurePlan("host-0", fail_at=10.0, recover_at=20.0))
    engine.run_until(15.0)
    assert not cluster.hosts["host-0"].alive
    engine.run_until(25.0)
    assert cluster.hosts["host-0"].alive
    kinds = [(r.kind, r.time) for r in injector.history]
    assert kinds == [("fail", 10.0), ("recover", 20.0)]


def test_failure_without_recovery():
    engine, cluster, injector = setup()
    injector.schedule(FailurePlan("host-1", fail_at=5.0))
    engine.run_until(100.0)
    assert not cluster.hosts["host-1"].alive


def test_recover_before_fail_rejected():
    with pytest.raises(ValueError):
        FailurePlan("h", fail_at=10.0, recover_at=5.0)


def test_failure_of_decommissioned_host_ignored():
    engine, cluster, injector = setup()
    injector.schedule(FailurePlan("host-0", fail_at=10.0))
    cluster.remove_host("host-0")
    engine.run_until(20.0)  # must not raise
    assert not injector.history  # nothing recorded for a removed host


def test_scripted_failures_carry_label():
    engine, cluster, injector = setup()
    injector.schedule(
        FailurePlan("host-0", fail_at=10.0, recover_at=20.0), label="drill"
    )
    engine.run_until(25.0)
    assert [(r.kind, r.label) for r in injector.history] == [
        ("fail", "drill"), ("recover", "drill"),
    ]


def test_fail_now_and_recover_now_record_label():
    engine, cluster, injector = setup()
    injector.fail_now("host-2", label="chaos:shard-manager-outage")
    assert not cluster.hosts["host-2"].alive
    injector.recover_now("host-2", label="chaos:shard-manager-outage")
    assert cluster.hosts["host-2"].alive
    assert [r.label for r in injector.history] == [
        "chaos:shard-manager-outage"
    ] * 2


def test_labels_render_in_timeline():
    """The label must survive into the merged operator timeline."""
    from repro import Turbine
    from repro.ops.timeline import IncidentTimeline

    platform = Turbine.create(num_hosts=2, seed=3)
    platform.start()
    platform.failures.schedule(
        FailurePlan("host-1", fail_at=30.0), label="gc-drill"
    )
    platform.run_for(minutes=2)
    events = IncidentTimeline(platform).events(kinds=["host-fail"])
    assert any(e.detail == "host-1 [gc-drill]" for e in events)

