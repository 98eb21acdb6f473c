"""Declarative chaos scenarios for the Turbine control plane.

Each scenario is a list of :class:`Fault` records with times **relative to
the moment the scenario is scheduled**, so the same scenario replays
identically from any starting state. Faults with a ``duration`` open an
availability window (``inject`` then ``clear``); faults without one are
instantaneous stimuli (an oncall config patch, a host death).

The registry covers the degraded modes the paper calls out:

* ``job-store-outage`` — the source of truth disappears (section IV-A's
  "continues with the most recent state" requirement);
* ``syncer-crash`` — the State Syncer dies losing its in-memory dirty
  set, and anti-entropy (a forced full scan) must repair the gap;
* ``shard-manager-outage`` — section IV-C's "Failure of Turbine
  Containers": managers keep their shards through the outage, and a host
  dies mid-outage to prove recovery still detects real failures;
* ``task-service-staleness`` — section IV-B: managers run from cached
  snapshots until the Task Service returns;
* ``metric-gap`` — the scaler's input goes dark (section V's "demand
  estimates from metrics"); the data plane must not care;
* ``scribe-partition-loss`` — an input category's brokers vanish; lag
  builds, no data is lost, and the backlog drains after recovery.
* ``leader-crash-mid-plan`` — the Job Store leader replica dies right
  after an oncall patch, before the syncer's next round; the lease
  lapses, a follower promotes from the command log, and the pending
  plan applies exactly once on the new leader;
* ``follower-lag-snapshot-catchup`` — a follower is down long enough
  that the command log's retention horizon passes it; on rejoin it must
  bootstrap via snapshot transfer from the leader, then tail the log.
* ``checkpoint-restore-vs-cold-restart`` — a restart-like fault wipes a
  job's live progress offsets; with durable checkpoints attached the
  checkpoint plane rolls forward from the latest Scribe snapshot
  (recovery is O(since-last-checkpoint)), without them the job re-reads
  the whole retained backlog;
* ``standby-takeover`` — the host running a task's primary dies
  permanently and the passive hot-standby replica on another host is
  promoted within one standby tick, beating the 40 s reboot clock;
* ``gray-node-drain`` — a host degrades to a fraction of its throughput
  without failing a single health check; the slow-node detector drains
  the gray containers so shards migrate to healthy hosts.
* ``container-partition`` — one host's Task Managers lose the Shard
  Manager and reboot before their fail-over (section IV-C);
* ``capacity-squeeze`` — a host loss overfills the cluster and the
  Capacity Manager stops, then resumes, the lowest-priority job (V-F).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.types import Priority, Seconds

#: Fault kinds the chaos engine knows how to inject.
FAULT_KINDS = (
    "job-store-outage",
    "syncer-crash",
    "shard-manager-outage",
    "task-service-outage",
    "metric-gap",
    "scribe-partition-loss",
    "host-failure",
    "oncall-patch",
    "replica-crash",
    "repl-log-trim",
    "checkpoint-wipe",
    "slow-node",
    "container-partition",
)

#: Recovery watch kinds a measured fault can request.
#:
#: * ``convergence`` — the classic clock: opens when the fault clears,
#:   closes at the first fully converged invariant sample;
#: * ``lag`` — opens at inject (baseline = the target job's backlog just
#:   before the fault), closes when the backlog is back at baseline;
#: * ``takeover`` — opens at inject, closes when every spec of the
#:   target task's job has a RUNNING task (or promoted standby) on a
#:   live manager. Sampled on a fine 1 s timer so sub-5 s takeovers are
#:   resolvable.
WATCH_KINDS = ("convergence", "lag", "takeover")


@dataclass(frozen=True)
class Fault:
    """One fault (or stimulus) inside a scenario.

    ``at`` is relative to scenario start. ``duration`` of ``None`` means
    the fault is an instantaneous action with nothing to clear; otherwise
    the fault clears at ``at + duration`` and, when ``measure`` is true,
    the chaos engine measures MTTR from that clear to the first
    convergence-check pass. A non-default ``watch`` (see
    :data:`WATCH_KINDS`) times recovery from *inject* against a
    fault-specific predicate instead, which also lets instantaneous
    faults (``duration=None``) be measured.
    """

    kind: str
    at: Seconds
    duration: Optional[Seconds] = None
    #: Host id, Scribe category, job id, or ``"task-of:<task_id>"``
    #: (resolved at inject time to the host running that task) —
    #: depending on ``kind``.
    target: str = ""
    #: Config overlay for ``oncall-patch``; ``{"factor": f}`` for
    #: ``slow-node``.
    payload: Optional[Mapping[str, object]] = None
    measure: bool = True
    #: Which recovery predicate closes this fault's MTTR clock.
    watch: str = "convergence"

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind: {self.kind!r}")
        if not (math.isfinite(self.at) and self.at >= 0):
            raise ValueError(f"fault time must be finite and non-negative: {self.at}")
        duration = self.duration
        if duration is not None and not (math.isfinite(duration) and duration > 0):
            raise ValueError(f"fault duration must be finite and positive: {duration}")
        if self.kind == "slow-node" and not 0.0 <= self.slow_factor <= 1.0:
            raise ValueError(f"slow-node factor must be in [0, 1]: {self.slow_factor}")
        if self.watch not in WATCH_KINDS:
            raise ValueError(
                f"unknown watch kind {self.watch!r} (known: {WATCH_KINDS})"
            )

    @property
    def slow_factor(self) -> float:
        """A ``slow-node`` fault's throughput factor (0.5 unless given)."""
        return float((self.payload or {}).get("factor", 0.5))

    @property
    def key(self) -> str:
        """Stable identifier for MTTR bookkeeping and reports."""
        suffix = f":{self.target}" if self.target else ""
        return f"{self.kind}{suffix}@{self.at:g}s"


@dataclass(frozen=True)
class ChaosScenario:
    """A named, replayable fault schedule."""

    name: str
    description: str
    faults: Tuple[Fault, ...]
    #: How long :func:`repro.chaos.runner.run_scenario` keeps simulating
    #: after scheduling the scenario (long enough to converge).
    horizon: Seconds = 960.0
    #: Whether the platform runs with Job Store replication attached.
    #: Off for the legacy scenarios so their golden MTTRs stay frozen
    #: (a replicated ``job-store-outage`` would fail over and self-heal,
    #: which is a different experiment — see the replication scenarios).
    replication: bool = False
    #: Whether the platform runs with durable task checkpoints to Scribe
    #: (the :mod:`repro.tasks.checkpoint` plane) attached.
    durable_checkpoints: bool = False
    #: Whether jobs opt into hot-standby replicas and the standby plane
    #: is attached.
    hot_standby: bool = False
    #: Whether the gray-failure (slow-node) detector is attached.
    slow_node_detection: bool = False
    #: Whether the Capacity Manager (section V-F) is attached.
    capacity_manager: bool = False
    #: The documented recovery bound for this scenario's worst measured
    #: fault, in seconds (``None`` = no published bound). Rendered by
    #: ``repro chaos list`` and asserted at ``--seed 7`` by the tier-1
    #: chaos tests.
    expected_max_mttr: Optional[Seconds] = None


def _job_store_outage() -> ChaosScenario:
    return ChaosScenario(
        name="job-store-outage",
        description=(
            "Job Store unavailable for 5 min; an oncall patch lands just "
            "before the outage so the syncer has pending work it cannot "
            "see. Rounds are skipped (not crashed) and the patch applies "
            "after recovery."
        ),
        faults=(
            Fault("oncall-patch", at=40.0, target="chaos/job-0",
                  payload={"task_count": 4}, measure=False),
            Fault("job-store-outage", at=45.0, duration=300.0),
        ),
        expected_max_mttr=180.0,
    )


def _syncer_crash() -> ChaosScenario:
    return ChaosScenario(
        name="syncer-crash",
        description=(
            "State Syncer crashes, losing its in-memory dirty set and "
            "change cursor; a patch lands while it is down. On restart "
            "anti-entropy (a forced full scan) finds and applies the "
            "missed change."
        ),
        faults=(
            Fault("syncer-crash", at=30.0, duration=300.0),
            Fault("oncall-patch", at=60.0, target="chaos/job-1",
                  payload={"task_count": 3}, measure=False),
        ),
    )


def _shard_manager_outage() -> ChaosScenario:
    return ChaosScenario(
        name="shard-manager-outage",
        description=(
            "Shard Manager down for 7 min; Task Managers keep their "
            "shards and tasks keep running (paper IV-C). A host dies "
            "mid-outage — undetectable until the Shard Manager returns, "
            "at which point failover moves its shards."
        ),
        faults=(
            Fault("shard-manager-outage", at=30.0, duration=420.0),
            Fault("host-failure", at=120.0, target="host-1", measure=False),
        ),
        horizon=1200.0,
        expected_max_mttr=180.0,
    )


def _task_service_staleness() -> ChaosScenario:
    return ChaosScenario(
        name="task-service-staleness",
        description=(
            "Task Service snapshots unavailable for 5 min while a patch "
            "raises a job's task count; the syncer commits the new specs "
            "but managers run from stale cached snapshots until recovery "
            "(paper IV-B)."
        ),
        faults=(
            Fault("task-service-outage", at=30.0, duration=300.0),
            Fault("oncall-patch", at=60.0, target="chaos/job-0",
                  payload={"task_count": 4}, measure=False),
        ),
    )


def _metric_gap() -> ChaosScenario:
    return ChaosScenario(
        name="metric-gap",
        description=(
            "Metric-store ingestion drops samples for 5 min; scalers and "
            "health reports run on stale data but the data plane is "
            "untouched, so recovery is immediate."
        ),
        faults=(
            Fault("metric-gap", at=30.0, duration=300.0),
        ),
        horizon=660.0,
    )


def _scribe_partition_loss() -> ChaosScenario:
    return ChaosScenario(
        name="scribe-partition-loss",
        description=(
            "Every partition of one input category goes offline for "
            "5 min; producers keep buffering (no data loss), consumers "
            "stall and lag builds, then the backlog drains after "
            "recovery."
        ),
        faults=(
            Fault("scribe-partition-loss", at=30.0, duration=300.0,
                  target="cat-0"),
        ),
    )


def _leader_crash_mid_plan() -> ChaosScenario:
    return ChaosScenario(
        name="leader-crash-mid-plan",
        description=(
            "An oncall patch lands, then the Job Store leader replica "
            "dies before the syncer's next round can execute the plan. "
            "Writes degrade like a store outage until the lease lapses "
            "and a follower promotes from the command log; the pending "
            "plan then applies exactly once — no lost and no duplicated "
            "plan actions — and failover beats the 40 s reboot clock."
        ),
        faults=(
            Fault("oncall-patch", at=55.0, target="chaos/job-0",
                  payload={"task_count": 4}, measure=False),
            Fault("replica-crash", at=58.0, duration=120.0,
                  target="leader"),
        ),
        replication=True,
        expected_max_mttr=40.0,
    )


def _follower_lag_snapshot_catchup() -> ChaosScenario:
    return ChaosScenario(
        name="follower-lag-snapshot-catchup",
        description=(
            "A follower replica is down while patches advance the "
            "command log, and the log's retention horizon is trimmed "
            "past the follower's position. On rejoin, catch-up must "
            "detect the horizon, install a snapshot from the leader, "
            "and tail the log back to in-sync."
        ),
        faults=(
            Fault("replica-crash", at=30.0, duration=300.0,
                  target="replica-2"),
            Fault("oncall-patch", at=60.0, target="chaos/job-1",
                  payload={"task_count": 3}, measure=False),
            Fault("oncall-patch", at=120.0, target="chaos/job-2",
                  payload={"task_count": 3}, measure=False),
            Fault("repl-log-trim", at=200.0, measure=False),
        ),
        replication=True,
    )


def _checkpoint_restore_vs_cold_restart() -> ChaosScenario:
    return ChaosScenario(
        name="checkpoint-restore-vs-cold-restart",
        description=(
            "A restart-like fault wipes job-0's live progress offsets. "
            "With durable checkpoints the checkpoint plane detects the "
            "regression and rolls the offsets forward from the latest "
            "Scribe snapshot, so only the last checkpoint interval is "
            "re-read; the lag watch times inject until the backlog is "
            "back at its pre-fault baseline. Run with --control to "
            "watch the cold restart re-read the whole retained backlog "
            "instead."
        ),
        faults=(
            # 75 s, deliberately off the checkpoint plane's 30 s tick
            # grid: the wipe lands mid-interval, so the measured MTTR
            # includes the realistic wait for the next plane tick.
            Fault("checkpoint-wipe", at=75.0, target="chaos/job-0",
                  watch="lag"),
        ),
        durable_checkpoints=True,
        expected_max_mttr=90.0,
    )


def _standby_takeover() -> ChaosScenario:
    return ChaosScenario(
        name="standby-takeover",
        description=(
            "The host running job-0's task 0 dies permanently (no "
            "recovery). The passive hot-standby replica on a different "
            "host is promoted within one standby tick; the takeover "
            "watch times inject until every task of the job is RUNNING "
            "again — beating the 40 s connection-timeout reboot clock a "
            "cold restart pays. Promotion is audited exactly-once via "
            "the standby promotion log; run with --control for the "
            "cold-restart arm."
        ),
        faults=(
            Fault("host-failure", at=55.0, target="task-of:chaos/job-0:0",
                  watch="takeover"),
        ),
        hot_standby=True,
        expected_max_mttr=5.0,
    )


def _gray_node_drain() -> ChaosScenario:
    return ChaosScenario(
        name="gray-node-drain",
        description=(
            "A host degrades to 10% throughput for 6 min without "
            "failing a single health check (gray failure). The "
            "slow-node detector compares per-task rates against the "
            "job median, confirms the suspicion over consecutive "
            "rounds, and drains the gray containers so their shards "
            "migrate to healthy hosts; the drained containers keep "
            "heartbeating and are undrained after the cooldown."
        ),
        faults=(
            Fault("slow-node", at=60.0, duration=360.0,
                  target="task-of:chaos/job-0:0",
                  payload={"factor": 0.1}),
        ),
        slow_node_detection=True,
        expected_max_mttr=60.0,
    )


def _container_partition() -> ChaosScenario:
    return ChaosScenario(
        name="container-partition",
        description=(
            "host-0's Task Managers lose the Shard Manager for 3 min while "
            "their tasks keep running. Each reboots 40 s after its first "
            "failed heartbeat, before the 60 s fail-over starts its shards "
            "elsewhere, so no task runs twice (paper IV-C)."
        ),
        faults=(
            Fault("container-partition", at=30.0, duration=180.0,
                  target="host-0"),
        ),
        expected_max_mttr=10.0,
    )


def _squeeze_patch(priority: Priority, memory_gb: float) -> Dict[str, object]:
    return {
        "priority": int(priority),
        "task_count": 16,
        "resources": {"cpu": 0.5, "memory_gb": memory_gb},
    }


def _capacity_squeeze() -> ChaosScenario:
    return ChaosScenario(
        name="capacity-squeeze",
        description=(
            "Oncall patches fill 0.75 of the cluster (16 tasks a job; HIGH "
            "and NORMAL at 20 GB a task, LOW at 8 GB), then host-1 dies "
            "for 10 min and utilization reads 1.0. The Capacity Manager "
            "stops the LOW job, never a HIGH one, and resumes it once the "
            "host is back (paper V-F); MTTR runs until it runs again."
        ),
        faults=(
            Fault("oncall-patch", at=30.0, target="chaos/job-0",
                  payload=_squeeze_patch(Priority.HIGH, 20.0), measure=False),
            Fault("oncall-patch", at=30.0, target="chaos/job-1",
                  payload=_squeeze_patch(Priority.NORMAL, 20.0),
                  measure=False),
            Fault("oncall-patch", at=30.0, target="chaos/job-2",
                  payload=_squeeze_patch(Priority.LOW, 8.0), measure=False),
            Fault("host-failure", at=320.0, duration=600.0, target="host-1"),
        ),
        horizon=1500.0,
        capacity_manager=True,
        # The resume waits for the next Capacity Manager round (300 s),
        # the restarted tasks for a refresh (60 s) and a watch tick (5 s).
        expected_max_mttr=365.0,
    )


#: Name → scenario. The registry is rebuilt per call so scenario tuples
#: can never be mutated by one run and leak into the next.
def all_scenarios() -> Dict[str, ChaosScenario]:
    scenarios = (
        _job_store_outage(),
        _syncer_crash(),
        _shard_manager_outage(),
        _task_service_staleness(),
        _metric_gap(),
        _scribe_partition_loss(),
        _leader_crash_mid_plan(),
        _follower_lag_snapshot_catchup(),
        _checkpoint_restore_vs_cold_restart(),
        _standby_takeover(),
        _gray_node_drain(),
        _container_partition(),
        _capacity_squeeze(),
    )
    return {scenario.name: scenario for scenario in scenarios}


def get_scenario(name: str) -> ChaosScenario:
    """Look up a registered scenario by name."""
    scenarios = all_scenarios()
    if name not in scenarios:
        known = ", ".join(sorted(scenarios))
        raise KeyError(f"unknown chaos scenario {name!r} (known: {known})")
    return scenarios[name]

