"""The names every later performance claim must use.

One table of end-to-end metrics (unit, direction, regression bound, the
workloads each is defined on) and one of per-layer metrics (unit,
direction). ``BENCHMARK.json``, the README tables, ``check`` and
``compare`` are all read off these tables.

"host" metrics are wall-clock cost of the simulator; "sim" metrics are
simulated-time outcomes of the modelled Turbine and repeat exactly per
seed, so a host-time speed-up must leave them untouched.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

#: Seconds of measured phase the workload horizons are sized for on the
#: sizing box (2 cores, Python 3.11.7); ``--seconds`` scales the simulated
#: horizon linearly from here, so each run stays a fixed-size batch job.
RUN_SECONDS = 10

#: Default ``--seed``; feeds the engine rng and every generator.
DEFAULT_SEED = 20260926

WORKLOAD_NAMES = ("fleet-steady", "tailer-churn", "storm-rescale", "failover-drill")

#: Why each workload exists (one line each; sizes are in ``workloads.py``).
WORKLOAD_WHY: Dict[str, str] = {
    "fleet-steady": (
        "4 096 quiet tasks: the per-task / per-partition data path does ~3/4 "
        "of the work and the control plane only reads, so a data-plane gain "
        "must show here and nothing else may move"
    ),
    "tailer-churn": (
        "~2 000 one-task tailers under waves of provision / package push / "
        "rescale / deprovision: per-job layers (SLO, scaler, stats, syncer) "
        "dominate and the Job Store path is written, not only read"
    ),
    "storm-rescale": (
        "Fig. 9 storm over a long horizon: scaler-driven writes, rescale "
        "transitions, complex syncs, wide tasks (~21 partitions each) and "
        "metric retention growing for hours, so peak RSS means something"
    ),
    "failover-drill": (
        "twelve faults in one drill: only here do the failure layers run "
        "(1 s standby plane, shard-manager failover, syncer anti-entropy "
        "full scan, checkpoint roll-forward); they do nothing elsewhere"
    ),
}


class EndToEnd(NamedTuple):
    name: str
    kind: str  # "host" | "sim"
    unit: str
    better: str  # "lower" | "higher"
    #: Share of the parent's median by which the metric may worsen.
    #: ``None`` for sim metrics compared exactly (same seed, ``compare``).
    bound: Optional[float]
    #: Workloads the metric is defined on; it is omitted elsewhere.
    on: Tuple[str, ...]
    meaning: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "host", "s", "lower", 0.25, WORKLOAD_NAMES,
             "build platform + provision + simulated warm-up to a converged "
             "steady state; median of the run's set-up samples"),
    EndToEnd("wall_s_per_sim_hour", "host", "s/sim-h", "lower", 0.25, WORKLOAD_NAMES,
             "wall-clock of the measured phase per simulated hour"),
    EndToEnd("task_steps_per_s", "host", "1/s", "higher", 0.25, WORKLOAD_NAMES,
             "task-steps (one RUNNING task stepped on one plane tick) per "
             "wall second of the measured phase"),
    EndToEnd("peak_rss_mb", "host", "MB", "lower", 0.05, WORKLOAD_NAMES,
             "ru_maxrss of the measuring child process"),
    EndToEnd("failed_ops_share", "sim", "share", "lower", None, WORKLOAD_NAMES,
             "failed operations / attempted operations"),
    EndToEnd("sim_slo_good_share", "sim", "share", "higher", 0.02, WORKLOAD_NAMES,
             "1 - mean bad fraction over every (job, SLO) row of "
             "platform.slo.report, compliance window = the whole run"),
    EndToEnd("sim_task_hours", "sim", "task-h", "lower", 0.05, WORKLOAD_NAMES,
             "integral of running tasks over the measured phase, sampled at "
             "each simulated minute"),
    EndToEnd("sim_mttr_max_s", "sim", "s", "lower", None, ("failover-drill",),
             "worst measured fault recovery (platform.chaos.mttr)"),
    EndToEnd("sim_sched_latency_p95_s", "sim", "s", "lower", None, ("tailer-churn",),
             "p95 of mutation -> every expected task running at the expected "
             "package version and parallelism, polled every 10 sim-s"),
)

#: The end-to-end metrics the contract driver reads (``BENCHMARK.json``):
#: those defined on every workload and never 0. ``failed_ops_share`` travels
#: as the result line's ``failed`` / ``attempted`` instead.
DRIVER_END_TO_END = (
    "setup_s", "wall_s_per_sim_hour", "task_steps_per_s", "peak_rss_mb",
    "sim_slo_good_share", "sim_task_hours",
)


class PerLayer(NamedTuple):
    name: str
    unit: str
    better: str


def _layer(names: str, unit: str, better: str = "lower") -> Tuple[PerLayer, ...]:
    return tuple(PerLayer(name, unit, better) for name in names.split())


#: ``*_busy_s`` = summed span time, ``*_self_s`` = span minus child spans;
#: counts repeat exactly per seed. "better" is the direction an
#: optimisation of that layer would move it; shares are "lower" when they
#: are overhead and "higher" when they are a hit rate.
PER_LAYER: Tuple[PerLayer, ...] = (
    _layer("sim.engine.events sim.engine.queue_depth_max", "count")
    + _layer("sim.engine.dispatch_self_s", "s")
    + _layer("sim.engine.slice_wall_ms_p50 sim.engine.slice_wall_ms_p95", "ms")
    + _layer("plane.ticks", "count")
    + _layer("plane.tick_busy_s plane.tick_self_s", "s")
    + _layer("plane.coordinator_share plane.plan_skew", "ratio")
    + _layer("tasks.runtime.plan_calls tasks.runtime.oom_events", "count")
    + _layer("tasks.runtime.plan_self_s tasks.runtime.apply_self_s", "s")
    + _layer("scribe.read_busy_s scribe.append_busy_s", "s")
    + _layer("scribe.partition.readable_calls scribe.checkpoints.get_calls "
             "scribe.checkpoints.commit_calls scribe.partition.append_calls", "count")
    + _layer("metrics.ingest_busy_s", "s")
    + _layer("metrics.points_recorded metrics.reads_streaming metrics.reads_naive",
             "count")
    + _layer("metrics.streaming_read_share", "share", "higher")
    + _layer("jobs.syncer.rounds jobs.syncer.jobs_examined jobs.syncer.full_scans "
             "jobs.syncer.plans_failed jobs.service.writes", "count")
    + _layer("jobs.syncer.round_busy_s jobs.service.write_busy_s", "s")
    + _layer("tasks.manager.heartbeat_busy_s tasks.manager.refresh_busy_s "
             "tasks.manager.load_report_busy_s", "s")
    + _layer("tasks.shard_manager.failover_busy_s "
             "tasks.shard_manager.rebalance_busy_s", "s")
    + _layer("tasks.shard_manager.failovers tasks.shard_manager.shard_moves", "count")
    + _layer("tasks.balancer.cache_hit_share", "share", "higher")
    + _layer("tasks.stats.collect_busy_s", "s")
    + _layer("tasks.checkpoint.busy_s tasks.standby.busy_s tasks.slow_node.busy_s", "s")
    + _layer("tasks.checkpoint.snapshots tasks.standby.promotions", "count")
    + _layer("scaler.rounds scaler.actions", "count")
    + _layer("scaler.round_busy_s", "s")
    + _layer("obs.slo.eval_busy_s", "s")
    + _layer("obs.slo.judgements obs.slo.breach_windows obs.trace.spans", "count")
    + _layer("chaos.watch_busy_s", "s")
    + _layer("chaos.faults_injected", "count")
    + _layer("workloads.driver_busy_s", "s")
    + _layer("host.cpu_share", "share", "higher")
    + _layer("host.control_plane_share host.unattributed_share "
             "host.trace_overhead_share", "share")
)

END_TO_END_BY_NAME: Dict[str, EndToEnd] = {m.name: m for m in END_TO_END}
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
