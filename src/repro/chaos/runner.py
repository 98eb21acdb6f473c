"""Standard chaos-scenario runs: one platform shape, one report format.

:func:`run_scenario` builds the same small deployment the incident
tooling uses (4 hosts x 2 containers, 32 shards, three jobs with steady
traffic), warms it up to a converged steady state, schedules one named
scenario, and runs to the scenario's horizon. The result carries MTTR
per measured fault plus deterministic exports (timeline text, telemetry
JSONL) so same-seed runs are byte-for-byte comparable — the golden
determinism tests and the CI determinism sweep diff these directly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from repro.chaos.convergence import InvariantReport
from repro.chaos.scenarios import ChaosScenario, get_scenario
from repro.types import Seconds

#: Steady-state lead-in before the scenario starts: long enough for
#: initial placement, first syncs, refreshes, and a scaler pass.
WARMUP: Seconds = 300.0


@dataclass
class ScenarioResult:
    """Everything one chaos run produced."""

    scenario: str
    seed: int
    started_at: Seconds
    finished_at: Seconds
    #: fault key → seconds from fault clear to first converged sample
    #: (``None`` = never converged inside the horizon).
    mttr: Dict[str, Optional[Seconds]] = field(default_factory=dict)
    final_report: Optional[InvariantReport] = None
    timeline_text: str = ""
    telemetry_jsonl: str = ""
    #: Deterministic SLO export: budgets burned, breach windows, and
    #: burn-rate alerts over the whole drill (canonical JSON).
    slo_report_json: str = ""
    #: (job, slo) → error-budget fraction burned by the end of the run.
    budget_burned: Dict[str, float] = field(default_factory=dict)
    #: Closed + open SLO breach windows observed during the run.
    slo_breaches: int = 0
    #: Canonical end-state fingerprint (checkpoints, task states, heads).
    fingerprint_json: str = ""
    #: Causal trace export (JSONL), deterministic per seed.
    trace_jsonl: str = ""

    @property
    def converged(self) -> bool:
        """Every measured fault recovered and the final sample is clean."""
        return (
            all(value is not None for value in self.mttr.values())
            and self.final_report is not None
            and self.final_report.converged
        )

    @property
    def max_mttr(self) -> Optional[Seconds]:
        """Worst measured recovery time (``None`` if any clock is open)."""
        if not self.mttr or any(v is None for v in self.mttr.values()):
            return None
        return max(self.mttr.values())

    def render(self) -> str:
        """The ``repro chaos`` report."""
        from repro.analysis.report import Table

        lines = [f"chaos scenario: {self.scenario} (seed {self.seed})"]
        table = Table(["fault", "mttr (s)"])
        for key in sorted(self.mttr):
            value = self.mttr[key]
            table.add_row(key, f"{value:.1f}" if value is not None
                          else "NOT RECOVERED")
        lines.append(table.render())
        if self.final_report is not None:
            violations = self.final_report.violations()
            if violations:
                lines.append("final invariant violations:")
                for name, values in sorted(violations.items()):
                    lines.append(f"  {name}: {', '.join(values)}")
            else:
                lines.append("final invariants: all restored")
        if self.budget_burned:
            worst_key = max(
                sorted(self.budget_burned), key=lambda k: self.budget_burned[k]
            )
            lines.append(
                f"slo impact: {self.slo_breaches} breach window(s), "
                f"worst budget burn {self.budget_burned[worst_key]:.1%} "
                f"({worst_key})"
            )
        lines.append(f"converged: {'yes' if self.converged else 'NO'}")
        return "\n".join(lines)


def platform_fingerprint(platform) -> str:
    """Canonical JSON of the platform's deterministic end state.

    Checkpoint offsets, per-task progress/state, category heads, and
    fleet counters — everything the data plane writes. Two runs of the
    same seed are byte-identical here if and only if every step
    processed the same bytes in the same order, which makes this the
    sharpest of the five exports the determinism goldens compare.

    The text is what ``json.dump(state, sort_keys=True, indent=2)`` writes
    for the whole state, but it is written one job, manager and category
    at a time, so no copy of the whole state is built next to the text.
    """
    import io

    checkpoints = platform.scribe.checkpoints
    categories = platform.scribe.categories
    managers = platform.task_managers
    out = io.StringIO()
    _write_json(out, iter((
        ("checkpoints", (
            (job_id, checkpoints.snapshot(job_id))
            for job_id in sorted(platform.job_store.job_ids())
        )),
        ("heads", (
            (name, list(categories[name].heads)) for name in sorted(categories)
        )),
        ("managers", (
            (container_id, {
                "oom_events": manager.oom_events,
                "reboots": manager.reboot_count,
                "tasks": {
                    task_id: {
                        "state": task.state.name,
                        "processed_mb": task.total_processed_mb,
                        "oom_count": task.oom_count,
                    }
                    for task_id, task in manager.tasks.items()
                },
            })
            for container_id, manager in sorted(managers.items())
        )),
        ("now", platform.now),
    )), 0)
    return out.getvalue()


def _write_json(out, value, level: int) -> None:
    """Write ``value`` as ``json.dump(…, sort_keys=True, indent=2)`` nests
    it at ``level``; an iterator stands for an object and yields its
    ``(key, value)`` items in key order, written one at a time."""
    import json
    from collections.abc import Iterator

    if not isinstance(value, Iterator):
        text = json.dumps(value, sort_keys=True, indent=2)
        out.write(text.replace("\n", "\n" + "  " * level))
        return
    inner = "\n" + "  " * (level + 1)
    separator = "{"
    for key, item in value:
        out.write(f"{separator}{inner}{json.dumps(key)}: ")
        _write_json(out, item, level + 1)
        separator = ","
    out.write("{}" if separator == "{" else "\n" + "  " * level + "}")


def build_platform(
    seed: int,
    replication: bool = False,
    replicas=None,
    durable_checkpoints: bool = False,
    hot_standby: bool = False,
    slow_node_detection: bool = False,
    capacity_manager: bool = False,
):
    """The standard chaos deployment (shared with the hypothesis suites).

    4 hosts x 2 containers, 32 shards, scaler + health reporter attached,
    tracing and instrumentation on, three jobs (``chaos/job-0..2``) with
    steady traffic on ``cat-0..2``. With ``replication`` the Job Store
    runs as a 3-replica group over a Scribe command log (required by the
    ``replica-crash``/``repl-log-trim`` fault kinds). The resiliency
    toggles are passed to the ``PlatformConfig`` fields of the same name
    (checkpoint plane, standby plane, slow-node detector); ``hot_standby``
    also opts every chaos job into passive replicas. ``capacity_manager``
    attaches the Capacity Manager next to the scaler.
    """
    from repro import JobSpec, PlatformConfig, Turbine
    from repro.workloads import TrafficDriver

    platform = Turbine.create(
        num_hosts=4, seed=seed,
        config=PlatformConfig(
            num_shards=32, containers_per_host=2,
            durable_checkpoints=durable_checkpoints, hot_standby=hot_standby,
            slow_node_detection=slow_node_detection,
        ),
    )
    platform.attach_scaler()
    if capacity_manager:
        platform.attach_capacity_manager()
    platform.attach_health_reporter()
    platform.attach_slo()
    platform.attach_chaos()
    if replication:
        platform.attach_replication(replicas=replicas)
    platform.enable_tracing()
    platform.enable_instrumentation()
    platform.start()
    driver = TrafficDriver(platform.engine, platform.scribe, tick=60.0)
    rates = {"chaos/job-0": 2.0, "chaos/job-1": 1.0, "chaos/job-2": 1.0}
    for index, (job_id, rate) in enumerate(sorted(rates.items())):
        platform.provision(
            JobSpec(job_id=job_id, input_category=f"cat-{index}",
                    task_count=2, rate_per_thread_mb=2.0,
                    task_count_limit=16, hot_standby=hot_standby),
        )
        driver.add_source(f"cat-{index}", lambda t, r=rate: r)
    driver.start()
    return platform


def run_scenario(
    name_or_scenario,
    seed: int = 0,
    warmup: Seconds = WARMUP,
    replicas: Optional[int] = None,
    control: bool = False,
) -> ScenarioResult:
    """Run one named (or inline) scenario on a fresh platform.

    ``replicas`` overrides the replica-set size; passing it also forces
    replication on for scenarios that do not require it. ``control``
    leaves every plane the scenario asks for unattached (checkpoints,
    standbys, slow-node detection, Capacity Manager): the control arm
    (``repro chaos --control``) that shows what the same fault costs
    without the feature.
    """
    scenario: ChaosScenario = (
        name_or_scenario
        if isinstance(name_or_scenario, ChaosScenario)
        else get_scenario(name_or_scenario)
    )

    planes = not control
    platform = build_platform(
        seed,
        replication=scenario.replication or replicas is not None,
        replicas=replicas,
        durable_checkpoints=planes and scenario.durable_checkpoints,
        hot_standby=planes and scenario.hot_standby,
        slow_node_detection=planes and scenario.slow_node_detection,
        capacity_manager=planes and scenario.capacity_manager,
    )
    platform.run_for(seconds=warmup)
    started_at = platform.now
    platform.chaos.schedule(scenario)
    platform.run_for(seconds=scenario.horizon)

    result = ScenarioResult(
        scenario=scenario.name,
        seed=seed,
        started_at=started_at,
        finished_at=platform.now,
        mttr=dict(platform.chaos.mttr),
        final_report=platform.chaos.check(),
    )
    from repro.ops.timeline import IncidentTimeline

    result.timeline_text = IncidentTimeline(platform).render(since=started_at)
    result.telemetry_jsonl = platform.telemetry.to_jsonl(deterministic=True)
    result.fingerprint_json = platform_fingerprint(platform)
    result.trace_jsonl = platform.tracer.to_jsonl()
    if platform.slo is not None:
        slo_report = platform.slo.report(platform.now)
        result.slo_report_json = platform.slo.to_json(platform.now)
        result.budget_burned = {
            f"{row['job']}/{row['slo']}": row["budget_burned"]
            for row in slo_report["slos"]
        }
        result.slo_breaches = len(slo_report["breach_windows"])
    return result

