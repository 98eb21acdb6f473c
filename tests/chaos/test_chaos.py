"""Chaos engine and scenario tests: every registered scenario must
inject, clear, converge with finite MTTR, and show up in the incident
timeline."""

import pytest

from repro.chaos import (
    ChaosScenario,
    Fault,
    all_scenarios,
    get_scenario,
    run_scenario,
)

#: The acceptance list from the issue: every one must finish with
#: invariants restored and a finite MTTR.
ACCEPTANCE_SCENARIOS = (
    "job-store-outage",
    "syncer-crash",
    "shard-manager-outage",
    "task-service-staleness",
    "metric-gap",
    "scribe-partition-loss",
    # Replicated control plane (run on a 3-replica Job Store group;
    # deep assertions live in tests/chaos/test_replication_scenarios.py)
    "leader-crash-mid-plan",
    "follower-lag-snapshot-catchup",
    # Data-plane resiliency (deep assertions live in
    # tests/chaos/test_resiliency_scenarios.py)
    "checkpoint-restore-vs-cold-restart",
    "standby-takeover",
    "gray-node-drain",
    # Paper mechanisms with no plane switch of their own (deep assertions
    # live in tests/chaos/test_paper_mechanism_drills.py)
    "container-partition",
    "capacity-squeeze",
)


def test_registry_contents():
    assert set(all_scenarios()) == set(ACCEPTANCE_SCENARIOS)
    for name, scenario in all_scenarios().items():
        assert scenario.name == name
        assert scenario.description
        # The engine times a fault that asked to be measured and has a
        # window to recover from, or a watch that opens at inject.
        assert any(
            fault.measure
            and (fault.duration is not None or fault.watch != "convergence")
            for fault in scenario.faults
        ), f"{name} measures no fault, so it cannot report MTTR"


def test_unknown_scenario_rejected():
    with pytest.raises(KeyError):
        get_scenario("nope")


def test_fault_validation():
    with pytest.raises(ValueError):
        Fault("not-a-kind", at=0.0)
    with pytest.raises(ValueError):
        Fault("job-store-outage", at=-1.0)
    with pytest.raises(ValueError):
        Fault("job-store-outage", at=0.0, duration=0.0)


@pytest.mark.parametrize("at, duration", [
    (float("nan"), None), (float("inf"), None),
    (5.0, float("nan")), (5.0, float("inf")),
])
def test_fault_times_must_be_finite(at, duration):
    """A NaN or infinite time passes a sign check; ``schedule`` would arm
    the inject and then refuse the clear, leaving the host failed for
    good."""
    with pytest.raises(ValueError):
        Fault("host-failure", at=at, duration=duration, target="host-1")


@pytest.mark.parametrize("factor", [float("nan"), -1.0, 2.0, float("inf")])
def test_slow_node_factor_must_be_a_fraction(factor):
    """The throttle clamp reads NaN or -1 as a full stall and 2 or inf
    as no fault at all."""
    with pytest.raises(ValueError):
        Fault("slow-node", at=0.0, duration=60.0, target="host-0",
              payload={"factor": factor})
    for edge in (0.0, 1.0):
        Fault("slow-node", at=0.0, duration=60.0, target="host-0",
              payload={"factor": edge})


@pytest.mark.parametrize("name", ACCEPTANCE_SCENARIOS)
def test_scenario_converges_with_finite_mttr(name):
    """Every drill converges at ``--seed 7``, within its documented
    ``expected_max_mttr`` wherever the scenario states one."""
    result = run_scenario(name, seed=7)
    assert result.converged, (
        f"{name} did not converge: "
        f"{result.final_report and result.final_report.violations()}"
    )
    assert result.mttr, f"{name} measured nothing"
    for key, value in result.mttr.items():
        assert value is not None, f"{key} never recovered"
        assert 0.0 <= value < 900.0
    assert result.max_mttr is not None
    bound = get_scenario(name).expected_max_mttr
    if bound is not None:
        assert result.max_mttr <= bound, (
            f"{name}: worst MTTR {result.max_mttr}s exceeds its {bound}s bound"
        )


def test_chaos_records_reach_the_timeline():
    result = run_scenario("job-store-outage", seed=7)
    assert "chaos" in result.timeline_text
    assert "inject" in result.timeline_text
    assert "job-store-outage@45s" in result.timeline_text
    assert "converged" in result.timeline_text
    # The oncall stimulus is recorded as an action, not a fault window.
    assert "oncall-patch:chaos/job-0@40s" in result.timeline_text


def test_syncer_crash_recovers_via_full_scan():
    """The crash loses the dirty set; restart's anti-entropy full scan
    must still find and apply the patch committed during the outage."""
    result = run_scenario("syncer-crash", seed=7)
    assert result.converged
    assert result.mttr["syncer-crash@30s"] is not None


def test_shard_manager_outage_keeps_tasks_and_fails_over_late():
    """Paper IV-C: managers keep shards through the outage; the host
    that died mid-outage is only detected (and failed over) after the
    Shard Manager returns."""
    result = run_scenario("shard-manager-outage", seed=7)
    assert result.converged
    lines = result.timeline_text.splitlines()
    fail_time = next(
        float(line.split()[0]) for line in lines
        if "host-fail" in line and "host-1" in line
    )
    failover_times = [
        float(line.split()[0]) for line in lines
        if "failover" in line and "shard-manager" in line.split()[1]
    ]
    assert failover_times, "no failover after the Shard Manager returned"
    # Failover cannot happen while the Shard Manager is down (outage
    # clears 420 s after injection, i.e. 330 s after the host died).
    assert min(failover_times) >= fail_time + 300.0


def test_data_plane_scenarios_recover_instantly():
    """Metric and Scribe faults never break control-plane invariants, so
    the first post-clear sample already converges (MTTR 0) — the finding
    the scenario exists to demonstrate."""
    for name in ("metric-gap", "scribe-partition-loss"):
        result = run_scenario(name, seed=7)
        assert result.max_mttr == 0.0, (name, result.mttr)


def test_metric_gap_actually_drops_samples():
    result = run_scenario("metric-gap", seed=7)
    assert "chaos.faults_injected" in result.telemetry_jsonl
    # dropped_points is platform state, not exported; re-check via a
    # fresh run with direct access.
    from repro.chaos import build_platform, get_scenario as get

    platform = build_platform(seed=7)
    platform.run_for(seconds=300.0)
    platform.chaos.schedule(get("metric-gap"))
    platform.run_for(seconds=400.0)
    assert platform.metrics.dropped_points > 0


def test_scribe_loss_builds_then_drains_lag():
    from repro.chaos import build_platform

    platform = build_platform(seed=7)
    platform.run_for(seconds=300.0)
    platform.chaos.schedule(get_scenario("scribe-partition-loss"))
    platform.run_for(seconds=300.0)   # mid-outage (30..330)
    mid_lag = platform.job_lag_mb("chaos/job-0")
    assert mid_lag > 0.0, "offline partitions should stall consumers"
    platform.run_for(seconds=660.0)
    assert platform.job_lag_mb("chaos/job-0") < mid_lag


def test_inline_scenario_and_relative_scheduling():
    """Scenarios are relative to schedule time, so the same scenario can
    be scheduled twice in one run."""
    from repro.chaos import build_platform

    scenario = ChaosScenario(
        name="inline-store-blip",
        description="two short store blips",
        faults=(Fault("job-store-outage", at=10.0, duration=60.0),),
        horizon=400.0,
    )
    platform = build_platform(seed=3)
    platform.run_for(seconds=300.0)
    platform.chaos.schedule(scenario)
    platform.run_for(seconds=400.0)
    platform.chaos.schedule(scenario)
    platform.run_for(seconds=400.0)
    kinds = [(r.kind, r.time) for r in platform.chaos.records
             if r.kind in ("inject", "clear")]
    assert [k for k, __ in kinds] == ["inject", "clear", "inject", "clear"]
    assert kinds[2][1] == kinds[0][1] + 400.0


def test_telemetry_counts_resilience_edges():
    """Acceptance: the counted edges are visible in Telemetry."""
    result = run_scenario("job-store-outage", seed=7)
    assert "resilience.syncer.job-store." in result.telemetry_jsonl
    assert "syncer.rounds_skipped" in result.telemetry_jsonl
    assert "chaos.mttr_seconds" in result.telemetry_jsonl
