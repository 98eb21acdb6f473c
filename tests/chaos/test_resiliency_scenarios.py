"""Data-plane resiliency proof suite: the three recovery chaos scenarios.

The acceptance bar from the issue: ``standby-takeover`` promotes a warm
replica in under 5 s while the cold-restart control arm pays at least
the 40 s reboot clock, with an exactly-once promotion audit decoded from
the durable promotion log; ``checkpoint-restore-vs-cold-restart`` shows
recovery cost O(since-last-checkpoint) against the control's O(backlog);
``gray-node-drain`` drains exactly the slow host and recovers the job's
backlog hundreds of seconds before the undetected control arm. Golden
MTTRs and timeline-shape assertions freeze each trajectory per seed.
"""

import json

import pytest

from repro.chaos import build_platform, get_scenario, run_scenario
from repro.tasks.standby import PROMOTION_LOG

#: The paper's single-instance recovery budget hot standbys must beat.
REBOOT_CLOCK_SECONDS = 40.0

SEEDS = [101, 202, 303]

#: Control arm: the same fault with every resiliency feature forced off.
CONTROL = {"control": True}


# ----------------------------------------------------------------------
# standby-takeover
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_standby_takeover_golden_mttr_beats_heartbeat(seed):
    """Promotion lands on the next 1 s plane tick: MTTR 1 s, two orders
    of magnitude under the reboot clock, and inside the scenario's 5 s
    acceptance bound — identically across seeds."""
    result = run_scenario("standby-takeover", seed=seed)
    assert result.converged, (
        result.final_report and result.final_report.violations()
    )
    assert result.mttr == {"host-failure:task-of:chaos/job-0:0@55s": 1.0}
    assert result.max_mttr < get_scenario("standby-takeover").expected_max_mttr
    assert result.max_mttr < REBOOT_CLOCK_SECONDS


def test_standby_takeover_control_arm_pays_the_reboot_clock():
    """Without standbys the same host loss waits out the 40 s connection
    timeout before tasks even begin restarting: 55 s end to end."""
    result = run_scenario("standby-takeover", seed=101, **CONTROL)
    assert result.converged
    assert result.mttr == {"host-failure:task-of:chaos/job-0:0@55s": 55.0}
    assert result.max_mttr >= REBOOT_CLOCK_SECONDS


@pytest.mark.parametrize("seed", SEEDS)
def test_standby_takeover_exactly_once_promotion_audit(seed):
    """No-dup/no-loss: decode the durable promotion log and prove every
    task that lost its primary was promoted exactly once, the targeted
    task among them, and the final state runs every spec exactly once."""
    platform = build_platform(seed=seed, hot_standby=True)
    platform.run_for(seconds=300.0)
    scenario = get_scenario("standby-takeover")
    platform.chaos.schedule(scenario)
    platform.run_for(seconds=scenario.horizon)

    records = [
        json.loads(payload)
        for __, payload in platform.scribe.logs[PROMOTION_LOG].read_from(0)
    ]
    assert records, "the takeover must leave a durable audit trail"
    assert all(record["op"] == "promote" for record in records)
    promoted = [record["task"] for record in records]
    # Exactly once: the host death promotes each orphaned task's replica
    # a single time — no duplicate promotions anywhere in the drill.
    assert len(promoted) == len(set(promoted))
    # No loss: the task whose host the fault killed is among them.
    assert "chaos/job-0:0" in promoted
    # The in-memory record agrees with the durable log byte-for-byte
    # ordering, and every takeover beat one plane tick per task.
    assert [p.task_id for p in platform.standby.promotions] == promoted
    assert all(
        record["at"] == promotion.time
        for record, promotion in zip(records, platform.standby.promotions)
    )
    # The handoff half of exactly-once: after the control plane restarts
    # real primaries, no promoted replica may coexist with one.
    report = platform.chaos.check()
    assert report.converged, report.violations()
    assert report.promoting == []
    assert report.duplicates == []
    assert report.orphans == []
    assert report.missing == []


def test_standby_takeover_timeline_tells_the_promotion_story():
    result = run_scenario("standby-takeover", seed=101)
    timeline = result.timeline_text
    for needle in ("host-failure", "standby-promote", "standby-handoff"):
        assert needle in timeline, f"missing {needle!r}"
    # Promotion happens one plane tick after the t=355 s host death.
    assert "356.0" in timeline
    assert "1s after primary loss" in timeline


# ----------------------------------------------------------------------
# checkpoint-restore-vs-cold-restart
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", SEEDS)
def test_checkpoint_restore_golden_mttr(seed):
    """With the plane attached, a cursor wipe costs only the progress
    since the last 30 s snapshot: the backlog watch closes 25 s after
    injection, inside the scenario's 90 s bound."""
    result = run_scenario("checkpoint-restore-vs-cold-restart", seed=seed)
    assert result.converged, (
        result.final_report and result.final_report.violations()
    )
    assert result.mttr == {"checkpoint-wipe:chaos/job-0@75s": 25.0}
    assert result.max_mttr < get_scenario(
        "checkpoint-restore-vs-cold-restart"
    ).expected_max_mttr


def test_checkpoint_restore_control_arm_pays_the_full_backlog():
    """Without durable checkpoints the wiped job re-reads its entire
    retained backlog: recovery is O(backlog) — 315 s against the
    durable arm's 25 s."""
    result = run_scenario(
        "checkpoint-restore-vs-cold-restart", seed=101, **CONTROL
    )
    assert result.converged
    assert result.mttr == {"checkpoint-wipe:chaos/job-0@75s": 315.0}


def test_checkpoint_restore_timeline_shows_the_roll_forward():
    result = run_scenario("checkpoint-restore-vs-cold-restart", seed=101)
    timeline = result.timeline_text
    assert "checkpoint-wipe" in timeline
    assert "checkpoint-restore" in timeline
    assert "rolled" in timeline and "partitions forward" in timeline
    # The wipe lands at t=375 s (off the 30 s snapshot grid); the next
    # plane tick at t=390 s performs the roll-forward.
    assert "375.0" in timeline
    assert "390.0" in timeline


# ----------------------------------------------------------------------
# gray-node-drain
# ----------------------------------------------------------------------
def test_gray_node_drain_converges_with_zero_mttr_both_arms():
    """The convergence watch closes immediately on both arms: a gray
    node never breaks an *ownership* invariant — that is precisely why
    health checks miss it. The arms differ in the lag trajectory and
    SLO burn (asserted below), not in MTTR."""
    detect = run_scenario("gray-node-drain", seed=101)
    control = run_scenario("gray-node-drain", seed=101, **CONTROL)
    assert detect.converged and control.converged
    assert detect.mttr == {"slow-node:task-of:chaos/job-0:0@60s": 0.0}
    assert control.mttr == detect.mttr


@pytest.mark.parametrize("seed", SEEDS)
def test_gray_node_drain_drains_exactly_the_slow_host(seed):
    platform = build_platform(seed=seed, slow_node_detection=True)
    platform.run_for(seconds=300.0)
    scenario = get_scenario("gray-node-drain")
    platform.chaos.schedule(scenario)
    platform.run_for(seconds=scenario.horizon)

    detector = platform.slow_nodes
    assert detector.drains == 1, "one gray host, one drain"
    kinds = [event.kind for event in detector.events]
    assert kinds == ["gray-node-drain", "gray-node-undrain"]
    drain, undrain = list(detector.events)
    # Two confirmation windows after the t=360 s injection: drained at
    # t=480 s; the 600 s cooldown returns the host at t=1080 s.
    assert drain.time == 480.0
    assert undrain.time == 1080.0
    # The drained host is the one actually running the targeted task.
    slow_host = drain.detail.split(":")[0]
    assert undrain.detail.startswith(slow_host)
    assert "vs job median" in drain.detail
    # After the cooldown nothing stays administratively out of the pool.
    assert detector.drained == {}
    assert platform.shard_manager.drained == set()


def test_gray_node_drain_recovers_the_lag_control_cannot():
    """The feature's value, quantified: draining the gray host lets the
    job burn strictly less lag error budget than the undetected control
    arm, which crawls at 0.1x until the fault clears on its own."""
    detect = run_scenario("gray-node-drain", seed=101)
    control = run_scenario("gray-node-drain", seed=101, **CONTROL)
    burned_detect = detect.budget_burned["chaos/job-0/lag"]
    burned_control = control.budget_burned["chaos/job-0/lag"]
    assert burned_detect < burned_control
    # The drain needle is the detector's event detail, not the scenario
    # name (which labels the injection line on both arms).
    assert "shards migrated off" in detect.timeline_text
    assert "shards migrated off" not in control.timeline_text
