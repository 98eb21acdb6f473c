"""The four workloads: fixed sizes, seeded inputs, operations, output checks.

Every workload drives the real platform — ``Turbine.create`` on the inline
plane (``data_plane_partitions=1``), paper control plane, SLO plane
attached. In simulated time the traffic is open-loop (``TrafficDriver``
appends on schedule whether or not the tasks keep up); in host time each
run is a batch job of fixed input size.

Sizes are the constants below. ``scale`` multiplies every fleet size
(ad-hoc only), ``time_factor`` stretches the measured simulated horizon
(``--seconds / RUN_SECONDS``); neither changes the shape of the load.
The horizons are the issue's (1 / 1 / 30 / 1 sim-h) cut to fit the
contract's run-time cap; fleet sizes are not cut.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro import ConfigLevel, JobSpec, PlatformConfig, Turbine
from repro.chaos.scenarios import ChaosScenario, Fault
from repro.obs.slo import default_slo_specs
from repro.scaler import AutoScalerConfig
from repro.workloads import DiurnalPattern, ScubaFleet, StormSchedule, TrafficDriver

from benchmarks.e2e.spec import WORKLOAD_WHY

DAY = 86400.0

#: The measured phase advances in slices of this many simulated seconds;
#: pending operations are polled at slice boundaries.
SLICE_SIM_S = 10.0


def platform_config(warnings: List[str], **wanted) -> PlatformConfig:
    """A ``PlatformConfig`` from only the fields that still exist.

    Later PRs may collapse toggles (ROADMAP items 1 and 3); a field that is
    gone is dropped with a warning instead of crashing the benchmark.
    """
    known = {field.name for field in dataclasses.fields(PlatformConfig)}
    for name in sorted(set(wanted) - known):
        warnings.append(f"PlatformConfig.{name} no longer exists; left at default")
    return PlatformConfig(**{k: v for k, v in wanted.items() if k in known})


def whole_run_slo_specs(run_sim_s: float):
    """Default SLOs with the compliance window stretched over the run, so
    ``sim_slo_good_share`` covers every judgement made."""
    return tuple(
        dataclasses.replace(
            spec, compliance_window=max(spec.compliance_window, run_sim_s)
        )
        for spec in default_slo_specs()
    )


class Workload:
    """One named workload: builds the platform, drives the measured phase."""

    name = ""
    why = ""
    step_interval = 10.0
    #: Simulated warm-up to a converged steady state (part of ``setup_s``).
    setup_sim_s = 300.0
    #: Measured simulated horizon at ``--seconds RUN_SECONDS``.
    measured_sim_s = 900.0

    def __init__(
        self,
        seed: int,
        scale: float = 1.0,
        time_factor: float = 1.0,
        slices: int = 1,
        processes: bool = False,
    ) -> None:
        self.seed = seed
        self.scale = scale
        self.slices = slices
        self.processes = processes
        #: Whole simulated minutes, at least one.
        self.horizon = max(60.0, round(self.measured_sim_s * time_factor / 60.0) * 60.0)
        self.time_factor = self.horizon / self.measured_sim_s
        #: ``(kind, ok, detail)`` per operation, for ``failed_ops_share``.
        self.ops: List[Tuple[str, bool, str]] = []
        self.warnings: List[str] = []
        self.driver: Optional[TrafficDriver] = None

    # -- sizing ---------------------------------------------------------
    def n(self, size: int, minimum: int = 1) -> int:
        """A fleet size under ``--scale``."""
        return max(minimum, round(size * self.scale))

    def sizes(self) -> Dict[str, object]:
        """The size table (README and result stamp)."""
        raise NotImplementedError

    # -- lifecycle --------------------------------------------------------
    def build(self) -> Turbine:
        """Platform built, jobs provisioned, traffic attached, started."""
        raise NotImplementedError

    def begin(self, platform: Turbine) -> None:
        """The measured phase starts now (schedule faults, plan waves)."""

    def on_slice(self, platform: Turbine) -> None:
        """Called at every slice boundary of the measured phase."""

    def finish(self, platform: Turbine) -> Dict[str, float]:
        """Final operations; returns the workload's own ``sim_*`` metrics."""
        return {}

    # -- helpers ----------------------------------------------------------
    def op(self, kind: str, ok: bool, detail: str = "") -> None:
        self.ops.append((kind, bool(ok), detail))

    def _config(self, **wanted) -> PlatformConfig:
        return platform_config(
            self.warnings,
            containers_per_host=4,
            step_interval=self.step_interval,
            data_plane_partitions=self.slices,
            data_plane_processes=self.processes,
            **wanted,
        )

    def _run_sim_s(self) -> float:
        return self.setup_sim_s + self.horizon

    def _check_converged(self, platform: Turbine, kind: str) -> None:
        from repro.chaos.convergence import ConvergenceChecker

        report = ConvergenceChecker(platform).check()
        self.op(kind, report.converged, _violations(report))


def nearest_rank(values, share: float) -> float:
    """Nearest-rank percentile (the benchmark's own, so no change to the
    program's statistics helpers can move a reported figure)."""
    ordered = sorted(values)
    return ordered[max(0, min(len(ordered), math.ceil(share * len(ordered))) - 1)]


def _violations(report) -> str:
    return "; ".join(
        f"{name}: {len(values)}" for name, values in sorted(report.violations().items())
    )


# ----------------------------------------------------------------------
# 1. fleet-steady
# ----------------------------------------------------------------------
class FleetSteady(Workload):
    name = "fleet-steady"
    why = WORKLOAD_WHY[name]
    step_interval = 10.0
    setup_sim_s = 300.0
    measured_sim_s = 900.0

    JOBS = 128
    TASKS_PER_JOB = 32
    PARTITIONS_PER_TASK = 4
    HOSTS = 256
    SHARDS = 1024
    RATE_PER_THREAD_MB = 2.0
    #: Diurnal traffic between these shares of a job's capacity.
    LOAD_LOW, LOAD_HIGH = 0.5, 0.9
    #: Paper value is 30 min; compressed so the cut horizon still holds
    #: read-only balancer rounds (the workload's point is that they are
    #: cheap, not that they are rare).
    REBALANCE_INTERVAL = 300.0
    #: Convergence is sampled this often (one operation each).
    CHECK_EVERY = 300.0

    def sizes(self):
        jobs = self.n(self.JOBS)
        return {
            "jobs": jobs,
            "tasks": jobs * self.TASKS_PER_JOB,
            "scribe_partitions": jobs * self.TASKS_PER_JOB * self.PARTITIONS_PER_TASK,
            "hosts": self.n(self.HOSTS),
            "containers": self.n(self.HOSTS) * 4,
            "shards": self.n(self.SHARDS),
            "step_s": self.step_interval,
            "setup_sim_s": self.setup_sim_s,
            "measured_sim_s": self.horizon,
        }

    def build(self):
        platform = Turbine.create(
            num_hosts=self.n(self.HOSTS), seed=self.seed,
            config=self._config(
                num_shards=self.n(self.SHARDS),
                rebalance_interval=self.REBALANCE_INTERVAL,
            ),
        )
        platform.attach_scaler()
        platform.attach_slo(specs=whole_run_slo_specs(self._run_sim_s()))
        platform.start()
        self.driver = TrafficDriver(
            platform.engine, platform.scribe, tick=self.step_interval
        )
        capacity = self.TASKS_PER_JOB * self.RATE_PER_THREAD_MB
        middle = (self.LOAD_LOW + self.LOAD_HIGH) / 2.0
        swing = (self.LOAD_HIGH - self.LOAD_LOW) / 2.0
        phases = platform.engine.rng.fork("fleet-steady-phases")
        for index in range(self.n(self.JOBS)):
            category = f"fleet-{index:04d}"
            platform.provision(
                JobSpec(
                    job_id=f"fleet/job-{index:04d}", input_category=category,
                    task_count=self.TASKS_PER_JOB,
                    rate_per_thread_mb=self.RATE_PER_THREAD_MB,
                    task_count_limit=2 * self.TASKS_PER_JOB,
                ),
                partitions=self.TASKS_PER_JOB * self.PARTITIONS_PER_TASK,
            )
            self.driver.add_source(category, DiurnalPattern(
                middle * capacity, amplitude=swing / middle,
                phase=phases.uniform(0.0, DAY),
                rng=platform.engine.rng.fork(category),
            ))
        self.driver.start()
        return platform

    def begin(self, platform):
        self._next_check = platform.now + self.CHECK_EVERY

    def on_slice(self, platform):
        if platform.now >= self._next_check:
            self._next_check += self.CHECK_EVERY
            self._check_converged(platform, "convergence-sample")

    def finish(self, platform):
        service = platform.job_service
        for job_id in service.active_job_ids():
            objective = service.expected_config(job_id)["slo"]["max_lag_seconds"]
            lag = platform.metrics.latest(job_id, "time_lagged")
            self.op(
                "job-in-lag-slo", lag is not None and lag <= objective,
                f"{job_id} lag={lag} objective={objective}",
            )
        return {}


# ----------------------------------------------------------------------
# 2. tailer-churn
# ----------------------------------------------------------------------
class _Pending(NamedTuple):
    """A mutation waiting for the cluster to realise it."""

    kind: str
    job_id: str
    at: float
    #: ``done(running specs of the job) -> bool``
    done: Callable[[list], bool]


class TailerChurn(Workload):
    name = "tailer-churn"
    why = WORKLOAD_WHY[name]
    step_interval = 60.0
    setup_sim_s = 600.0
    measured_sim_s = 1800.0

    FLEET_JOBS = 2000
    PARTITIONS_PER_CATEGORY = 8
    HOSTS = 128
    SHARDS = 1024
    #: The issue's hour of six 10-min waves, cut to its first half: the
    #: wave period (and so the ratio of mutation work to per-minute
    #: per-job work) is kept, the number of waves is not.
    WAVES = 3
    #: Each wave provisions this share of the jobs not live at the start.
    PROVISION_SHARE = 1.0 / 6.0
    #: Jobs deprovisioned per wave (the oldest live ones).
    DEPROVISION_PER_WAVE = 40
    #: A mutation not realised within this many sim-s is a failed op.
    DEADLINE_S = 300.0

    def sizes(self):
        jobs = self.n(self.FLEET_JOBS)
        return {
            "fleet_jobs": jobs,
            "jobs_live_at_start": jobs // 2,
            "partitions_per_category": self.PARTITIONS_PER_CATEGORY,
            "hosts": self.n(self.HOSTS),
            "containers": self.n(self.HOSTS) * 4,
            "shards": self.n(self.SHARDS),
            "step_s": self.step_interval,
            "waves": self.WAVES,
            "setup_sim_s": self.setup_sim_s,
            "measured_sim_s": self.horizon,
        }

    def build(self):
        platform = Turbine.create(
            num_hosts=self.n(self.HOSTS), seed=self.seed,
            config=self._config(num_shards=self.n(self.SHARDS)),
        )
        platform.attach_scaler()
        platform.attach_slo(specs=whole_run_slo_specs(self._run_sim_s()))
        platform.start()
        self.driver = TrafficDriver(
            platform.engine, platform.scribe, tick=self.step_interval
        )
        fleet = ScubaFleet(self.n(self.FLEET_JOBS, minimum=12), self.seed)
        self._queue = list(zip(fleet.profiles, fleet.job_specs()))
        #: Live job ids, oldest first.
        self._live: List[str] = []
        half = len(self._queue) // 2
        for _ in range(half):
            self._provision_next(platform)
        self.driver.start()
        return platform

    def _provision_next(self, platform) -> JobSpec:
        profile, spec = self._queue.pop(0)
        platform.provision(spec, partitions=self.PARTITIONS_PER_CATEGORY)
        self.driver.add_source(
            spec.input_category, lambda t, rate=profile.base_rate_mb: rate
        )
        self._live.append(spec.job_id)
        return spec

    def begin(self, platform):
        self._start = platform.now
        self._wave_len = self.horizon / self.WAVES
        self._per_wave = math.ceil(len(self._queue) * self.PROVISION_SHARE)
        self._wave = 0
        self._pending: List[_Pending] = []
        self._latencies: List[float] = []

    def on_slice(self, platform):
        now = platform.now
        if self._pending:
            self._poll(platform, now)
        if (
            self._wave < self.WAVES
            and now >= self._start + self._wave * self._wave_len
        ):
            self._mutate(platform, now)
            self._wave += 1

    def _mutate(self, platform, now) -> None:
        """One wave: deprovision the oldest, then push / rescale among the
        survivors (disjoint sets), then provision the next batch. A job
        whose previous mutation is still pending is left alone, so every
        operation's predicate stays reachable."""
        service = platform.job_service
        busy = {pending.job_id for pending in self._pending}
        settled = [job_id for job_id in self._live if job_id not in busy]
        doomed = settled[:min(self.n(self.DEPROVISION_PER_WAVE), len(settled) // 4)]
        for job_id in doomed:
            self._live.remove(job_id)
            category = service.expected_config(job_id)["input"]["category"]
            platform.deprovision(job_id)
            self.driver.remove_source(category)
            self._pending.append(_Pending(
                "deprovision", job_id, now, lambda specs: not specs,
            ))
        version = f"2.{self._wave}"
        for index, job_id in enumerate(settled[len(doomed):]):
            if index % 2 == 0:
                count = service.expected_config(job_id)["task_count"]
                service.patch(job_id, ConfigLevel.PROVISIONER, {
                    "package": {"name": "stream_engine", "version": version},
                })
                self._pending.append(_Pending(
                    "package-push", job_id, now,
                    lambda specs, v=version, c=count: len(specs) == c and all(
                        spec.package_version == v for spec in specs
                    ),
                ))
            elif index % 8 == 1:
                count = service.expected_config(job_id)["task_count"]
                target = count + 1 if count < self.PARTITIONS_PER_CATEGORY else count - 1
                service.patch(job_id, ConfigLevel.ONCALL, {"task_count": target})
                self._pending.append(_Pending(
                    "rescale", job_id, now,
                    lambda specs, c=target: len(specs) == c and all(
                        spec.task_count == c for spec in specs
                    ),
                ))
        for _ in range(min(self._per_wave, len(self._queue))):
            spec = self._provision_next(platform)
            self._pending.append(_Pending(
                "provision", spec.job_id, now,
                lambda specs, c=spec.task_count: len(specs) == c,
            ))

    def _poll(self, platform, now) -> None:
        running: Dict[str, list] = {}
        for manager in platform.task_managers.values():
            if not manager.alive:
                continue
            for task_id in manager.running_task_ids():
                spec = manager.tasks[task_id].spec
                running.setdefault(spec.job_id, []).append(spec)
        still: List[_Pending] = []
        for pending in self._pending:
            if pending.done(running.get(pending.job_id, [])):
                self._latencies.append(now - pending.at)
                self.op(pending.kind, True)
            elif now - pending.at >= self.DEADLINE_S:
                self.op(pending.kind, False,
                        f"{pending.job_id} not realised in {self.DEADLINE_S:g}s")
            else:
                still.append(pending)
        self._pending = still

    def finish(self, platform):
        self._poll(platform, platform.now)
        for pending in self._pending:
            self.op(pending.kind, False, f"{pending.job_id} still pending at the end")
        if not self._latencies:
            return {}
        return {"sim_sched_latency_p95_s": nearest_rank(self._latencies, 0.95)}


# ----------------------------------------------------------------------
# 3. storm-rescale
# ----------------------------------------------------------------------
class StormRescale(Workload):
    name = "storm-rescale"
    why = WORKLOAD_WHY[name]
    step_interval = 60.0
    setup_sim_s = 2 * 3600.0
    measured_sim_s = 12 * 3600.0

    JOBS = 40
    TASKS_PER_JOB = 3
    TASK_COUNT_LIMIT = 64
    PARTITIONS_PER_CATEGORY = 64
    HOSTS = 10
    SHARDS = 256
    SURGE = 0.16
    STORM_HOURS = 6.0
    #: A job-hour fails when the job spent more than this much of the hour
    #: out of its lag SLO. The scaler is reactive — a job it is about to
    #: widen breaches for one scaler interval plus a sync (<= 8 min seen) —
    #: so a breach is normal and only a breach nobody repairs is a failure.
    BREACH_BUDGET_S = 600.0

    def sizes(self):
        return {
            "jobs": self.n(self.JOBS),
            "tasks_at_start": self.n(self.JOBS) * self.TASKS_PER_JOB,
            "partitions_per_category": self.PARTITIONS_PER_CATEGORY,
            "hosts": self.n(self.HOSTS),
            "containers": self.n(self.HOSTS) * 4,
            "shards": self.n(self.SHARDS),
            "step_s": self.step_interval,
            "storm_surge": self.SURGE,
            "setup_sim_s": self.setup_sim_s,
            "measured_sim_s": self.horizon,
        }

    def build(self):
        platform = Turbine.create(
            num_hosts=self.n(self.HOSTS), seed=self.seed,
            config=self._config(num_shards=self.n(self.SHARDS)),
        )
        platform.attach_scaler(
            AutoScalerConfig(interval=300.0, downscale_after=7200.0)
        )
        platform.attach_slo(specs=whole_run_slo_specs(self._run_sim_s()))
        platform.start()
        self.driver = TrafficDriver(
            platform.engine, platform.scribe, tick=self.step_interval
        )
        # The diurnal peak sits mid-way through the measured phase and the
        # storm spans it, whatever the horizon.
        peak = self.setup_sim_s + self.horizon / 2.0
        storm_half = min(self.STORM_HOURS * 3600.0, self.horizon / 2.0) / 2.0
        jobs = self.n(self.JOBS)
        spread = platform.engine.rng.fork("storm-base-rates")
        for index in range(jobs):
            category = f"storm-{index:03d}"
            # 5-10 MB/s against a 6 MB/s starting capacity: the scaler
            # sizes every job during set-up; the storm then pushes only the
            # busiest over the line (task growth below traffic growth).
            base = 5.0 + 5.0 * (index + spread.uniform(0.0, 1.0)) / jobs
            pattern = DiurnalPattern(
                base, amplitude=0.25, phase=peak - DAY / 4.0,
                rng=platform.engine.rng.fork(category),
            )
            platform.provision(
                JobSpec(
                    job_id=f"storm/job-{index:03d}", input_category=category,
                    task_count=self.TASKS_PER_JOB, threads_per_task=1,
                    rate_per_thread_mb=2.0,
                    task_count_limit=self.TASK_COUNT_LIMIT,
                ),
                partitions=self.PARTITIONS_PER_CATEGORY,
            )
            self.driver.add_source(category, StormSchedule(
                pattern, peak - storm_half, peak + storm_half, surge=self.SURGE,
            ))
        self.driver.start()
        return platform

    def finish(self, platform):
        start = platform.now - self.horizon
        hours = max(1, int(self.horizon // 3600.0))
        breached: Dict[Tuple[str, int], float] = {}
        for breach in platform.slo.breaches:
            if breach.slo != "lag":
                continue
            end = platform.now if breach.end is None else breach.end
            for hour in range(hours):
                low = start + hour * 3600.0
                overlap = min(end, low + 3600.0) - max(breach.start, low)
                if overlap > 0:
                    key = (breach.job_id, hour)
                    breached[key] = breached.get(key, 0.0) + overlap
        for job_id in platform.job_service.job_ids():
            for hour in range(hours):
                seconds = breached.get((job_id, hour), 0.0)
                self.op(
                    "job-hour-in-lag-slo", seconds <= self.BREACH_BUDGET_S,
                    f"{job_id} hour {hour}: {seconds:g}s out of SLO",
                )
        return {}


# ----------------------------------------------------------------------
# 4. failover-drill
# ----------------------------------------------------------------------
class FailoverDrill(Workload):
    name = "failover-drill"
    why = WORKLOAD_WHY[name]
    step_interval = 10.0
    setup_sim_s = 300.0
    measured_sim_s = 1200.0

    JOBS = 256
    TASKS_PER_JOB = 4
    PARTITIONS_PER_CATEGORY = 8
    HOSTS = 64
    SHARDS = 256
    #: Every n-th job opts into hot standbys.
    STANDBY_EVERY = 4

    #: ``(fault, MTTR bound in sim-s or None when unmeasured)``; times are
    #: relative to the start of the measured phase at ``time_factor`` 1 and
    #: stretch with it. Faults do not overlap, so each convergence clock
    #: measures its own fault.
    @staticmethod
    def _faults() -> Tuple[Tuple[Fault, Optional[float]], ...]:
        job = "drill/job-{:04d}".format
        return (
            (Fault("host-failure", at=30.0, target=f"task-of:{job(0)}:0",
                   watch="takeover"), 5.0),
            (Fault("host-failure", at=60.0, duration=90.0,
                   target=f"task-of:{job(1)}:0"), 120.0),
            (Fault("oncall-patch", at=100.0, target=job(2),
                   payload={"task_count": 6}, measure=False), None),
            (Fault("job-store-outage", at=200.0, duration=60.0), 90.0),
            (Fault("shard-manager-outage", at=300.0, duration=120.0), 180.0),
            (Fault("host-failure", at=340.0, target=f"task-of:{job(3)}:0",
                   measure=False), None),
            (Fault("syncer-crash", at=520.0, duration=60.0), 90.0),
            (Fault("oncall-patch", at=550.0, target=job(5),
                   payload={"task_count": 5}, measure=False), None),
            (Fault("checkpoint-wipe", at=635.0, target=job(6), watch="lag"), 90.0),
            (Fault("slow-node", at=700.0, duration=200.0,
                   target=f"task-of:{job(7)}:0", payload={"factor": 0.1}), 120.0),
            (Fault("metric-gap", at=930.0, duration=60.0), 60.0),
            (Fault("scribe-partition-loss", at=1020.0, duration=60.0,
                   target="drill-0009"), 90.0),
        )

    def sizes(self):
        jobs = self.n(self.JOBS, minimum=16)
        return {
            "jobs": jobs,
            "tasks": jobs * self.TASKS_PER_JOB,
            "hot_standby_tasks": -(-jobs // self.STANDBY_EVERY) * self.TASKS_PER_JOB,
            "partitions_per_category": self.PARTITIONS_PER_CATEGORY,
            "hosts": self.n(self.HOSTS, minimum=8),
            "containers": self.n(self.HOSTS, minimum=8) * 4,
            "shards": self.n(self.SHARDS, minimum=32),
            "step_s": self.step_interval,
            "faults": len(self._faults()),
            "setup_sim_s": self.setup_sim_s,
            "measured_sim_s": self.horizon,
        }

    def build(self):
        # Mirrors repro.chaos.runner.build_platform at fleet size: every
        # resiliency plane, scaler, health reporter, SLO, chaos engine and
        # the product Tracer on.
        platform = Turbine.create(
            num_hosts=self.n(self.HOSTS, minimum=8), seed=self.seed,
            config=self._config(
                num_shards=self.n(self.SHARDS, minimum=32),
                durable_checkpoints=True, hot_standby=True,
                slow_node_detection=True,
            ),
        )
        platform.attach_scaler()
        platform.attach_health_reporter()
        platform.attach_slo(specs=whole_run_slo_specs(self._run_sim_s()))
        platform.attach_chaos()
        platform.enable_tracing()
        platform.start()
        self.driver = TrafficDriver(
            platform.engine, platform.scribe, tick=self.step_interval
        )
        rates = platform.engine.rng.fork("drill-rates")
        for index in range(self.n(self.JOBS, minimum=16)):
            category = f"drill-{index:04d}"
            platform.provision(
                JobSpec(
                    job_id=f"drill/job-{index:04d}", input_category=category,
                    task_count=self.TASKS_PER_JOB, rate_per_thread_mb=2.0,
                    task_count_limit=16,
                    hot_standby=index % self.STANDBY_EVERY == 0,
                ),
                partitions=self.PARTITIONS_PER_CATEGORY,
            )
            # 25-60 % of the job's 8 MB/s capacity: headroom to drain the
            # backlog a fault builds before the next one lands.
            rate = rates.uniform(2.0, 4.8)
            self.driver.add_source(category, lambda t, rate=rate: rate)
        self.driver.start()
        return platform

    def begin(self, platform):
        stretch = self.time_factor
        self._bounds: Dict[str, float] = {}
        faults = []
        for fault, bound in self._faults():
            fault = dataclasses.replace(
                fault, at=fault.at * stretch,
                duration=None if fault.duration is None else fault.duration * stretch,
            )
            faults.append(fault)
            if bound is not None:
                self._bounds[fault.key] = bound
        platform.chaos.schedule(ChaosScenario(
            name="failover-drill", description=self.why,
            faults=tuple(faults), horizon=self.horizon,
        ))

    def finish(self, platform):
        mttr = dict(platform.chaos.mttr)
        for key, bound in sorted(self._bounds.items()):
            value = mttr.get(key)
            self.op(
                "fault-recovery", value is not None and value <= bound,
                f"{key} mttr={value} bound={bound}",
            )
        self._check_converged(platform, "final-convergence")
        measured = [value for value in mttr.values() if value is not None]
        return {"sim_mttr_max_s": max(measured)} if measured else {}


WORKLOADS: Dict[str, Callable[..., Workload]] = {
    cls.name: cls for cls in (FleetSteady, TailerChurn, StormRescale, FailoverDrill)
}
