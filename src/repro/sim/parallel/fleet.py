"""The fleet model and the per-partition runner.

A *fleet* is a set of jobs, each fanned out into tasks that the MD5
shard mapping scatters across partitions. Each partition hosts one
:class:`PartitionRunner`: its own :class:`~repro.sim.engine.Engine`
(seeded with ``SeededRng(seed).fork(f"partition-{i}")``), its own
:class:`~repro.tasks.sliced.ShardSlicedTasks` slice, and round-local
accumulators that it hands to the coordinator as a :class:`RoundDelta`
at every barrier.

A 1-partition fleet runs through exactly this code path — the parallel
run is the same simulation sliced differently, not a second
implementation to keep in sync.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Engine
from repro.sim.parallel.partition import PartitionPlan
from repro.sim.rng import SeededRng
from repro.tasks.sliced import ShardSlicedTasks, stable_u01

TWO_PI = 2.0 * math.pi
DAY_S = 86400.0


@dataclass(frozen=True)
class FleetJob:
    """One streaming job: tasks, diurnal traffic, an SLO, failure rates."""

    job_id: str
    task_count: int
    #: Job-wide arrival baseline, MB/s, split over tasks by stable shares.
    base_rate_mb: float
    #: Diurnal swing as a fraction of the baseline (0.3 → ±30 %).
    amplitude: float
    #: Hour-of-day offset of the traffic peak.
    phase_hours: float
    #: Per-task drain capacity, MB/s, before the vertical multiplier.
    rate_per_task_mb: float
    #: Lag SLO: seconds of backlog at the current arrival rate.
    lag_objective_s: float
    #: Auto-scaler ceiling (paper: per-job task count limits).
    task_count_limit: int
    #: Mean time between crashes of one task, seconds.
    mtbf_s: float
    #: Downtime per crash before the task resumes from checkpoint.
    restore_s: float

    def rate_at(self, t: float) -> float:
        """Arrival rate (MB/s) at simulated time ``t`` — pure, so every
        partition and the coordinator agree on it without messages."""
        swing = math.sin(TWO_PI * (t / DAY_S + self.phase_hours / 24.0))
        return max(0.0, self.base_rate_mb * (1.0 + self.amplitude * swing))


@dataclass(frozen=True)
class FleetSpec:
    """A complete, picklable description of one fleet run."""

    jobs: Tuple[FleetJob, ...]
    seed: int
    num_shards: int
    #: Data-plane integration step (arrival/drain/crash dynamics).
    step_interval: float
    #: Control-plane round barrier interval.
    round_interval: float
    duration: float
    #: Optional mid-round stats sampling; barriers always sample.
    stats_interval: Optional[float] = None

    def __post_init__(self) -> None:
        if not self.jobs:
            raise SimulationError("fleet has no jobs")
        ids = [job.job_id for job in self.jobs]
        if len(set(ids)) != len(ids):
            raise SimulationError(f"duplicate job ids in fleet: {ids}")
        if self.num_shards <= 0:
            raise SimulationError(
                f"num_shards must be positive: {self.num_shards}"
            )
        if self.step_interval <= 0:
            raise SimulationError(
                f"step_interval must be positive: {self.step_interval}"
            )
        if self.round_interval < self.step_interval:
            raise SimulationError(
                "round_interval must be >= step_interval: "
                f"{self.round_interval} < {self.step_interval}"
            )
        if self.duration < self.round_interval:
            raise SimulationError(
                "duration must cover at least one round: "
                f"{self.duration} < {self.round_interval}"
            )
        if self.stats_interval is not None and self.stats_interval <= 0:
            raise SimulationError(
                f"stats_interval must be positive: {self.stats_interval}"
            )

    @property
    def total_tasks(self) -> int:
        return sum(job.task_count for job in self.jobs)

    def barriers(self) -> List[float]:
        """Round-barrier timestamps; the last one is always ``duration``.

        Computed as ``k * round_interval`` (not by accumulation) so every
        process derives bit-identical barrier times.
        """
        out: List[float] = []
        k = 1
        while k * self.round_interval < self.duration:
            out.append(k * self.round_interval)
            k += 1
        out.append(self.duration)
        return out

    def to_summary(self) -> Dict:
        """A canonical dict of the spec, for fingerprints."""
        return {
            "jobs": {job.job_id: asdict(job) for job in self.jobs},
            "seed": self.seed,
            "num_shards": self.num_shards,
            "step_interval": self.step_interval,
            "round_interval": self.round_interval,
            "stats_interval": self.stats_interval,
            "duration": self.duration,
        }


@dataclass
class RoundDelta:
    """Everything one partition observed during one round.

    All numeric payloads are either entity-keyed records (crashes) or
    fixed-point integers (stats, orphan lag), per the package's merge
    rules; the delta pickles compactly for the multiprocessing path.
    """

    partition_index: int
    #: ``(t, job_id, lag_u, processed_u)`` samples, time-ordered.
    stats: List[Tuple[float, str, int, int]] = field(default_factory=list)
    #: ``(crash_time, job_id, task_index)`` records.
    crashes: List[Tuple[float, str, int]] = field(default_factory=list)
    #: ``(job_id, lag_u)`` orphaned by scale-downs applied this round.
    orphans: List[Tuple[str, int]] = field(default_factory=list)
    #: Engine events delivered (diagnostic only: partition-dependent, so
    #: it must never feed an export).
    events: int = 0


class PartitionRunner:
    """One partition's engine, task slice, and round-local accumulators."""

    def __init__(
        self,
        spec: FleetSpec,
        num_partitions: int,
        partition_index: int,
    ) -> None:
        self.spec = spec
        self.partition_index = partition_index
        self.plan = PartitionPlan(spec.num_shards, num_partitions)
        root = SeededRng(spec.seed)
        self.engine = Engine(
            start=0.0, rng=root.fork(f"partition-{partition_index}")
        )
        self.tasks = ShardSlicedTasks(
            jobs=spec.jobs,
            seed=spec.seed,
            num_shards=spec.num_shards,
            owns=lambda shard: self.plan.owns_shard(shard, partition_index),
        )
        self._job_order = self.tasks.job_order
        self._jobs_by_id = {job.job_id: job for job in spec.jobs}
        self._sorted_jobs = [self._jobs_by_id[j] for j in self._job_order]
        self._last_step = 0.0
        self._stats: List[Tuple[float, str, int, int]] = []
        self._crashes: List[Tuple[float, str, int]] = []
        self._orphans: List[Tuple[str, int]] = []
        self.events_processed = 0
        self.engine.every(
            spec.step_interval, self._on_step, name=f"p{partition_index}-step"
        )
        if (
            spec.stats_interval is not None
            and spec.stats_interval < spec.round_interval
        ):
            self.engine.every(
                spec.stats_interval,
                self._on_stats,
                name=f"p{partition_index}-stats",
            )

    # ------------------------------------------------------------------
    def _advance_to(self, t: float) -> None:
        """Integrate the data plane over ``[last_step, t)``."""
        dt = t - self._last_step
        if dt <= 0:
            return
        rates = [job.rate_at(self._last_step) for job in self._sorted_jobs]
        self._crashes.extend(self.tasks.step(self._last_step, dt, rates))
        self._last_step = t

    def _on_step(self) -> None:
        self._advance_to(self.engine.now)

    def _on_stats(self) -> None:
        self._advance_to(self.engine.now)
        self._stats.extend(self.tasks.stats_rows(self.engine.now))

    # ------------------------------------------------------------------
    def run_round(
        self, barrier: float, commands: Sequence[Tuple] = ()
    ) -> RoundDelta:
        """Apply last barrier's commands, run to ``barrier``, emit a delta.

        Commands apply at the current clock (= the previous barrier), so
        a scale decision made at barrier *k* takes effect at the start of
        round *k+1* in every partition simultaneously. The barrier edge
        always integrates the data plane up to the barrier and samples
        stats there, so the control plane sees fresh merged state.
        """
        if commands:
            self._orphans.extend(
                self.tasks.apply_commands(self.engine.now, list(commands))
            )
        self.events_processed += self.engine.drain_until(barrier)
        self._advance_to(barrier)
        self._stats.extend(self.tasks.stats_rows(barrier))
        delta = RoundDelta(
            partition_index=self.partition_index,
            stats=self._stats,
            crashes=self._crashes,
            orphans=self._orphans,
            events=self.events_processed,
        )
        self._stats = []
        self._crashes = []
        self._orphans = []
        return delta

    def __repr__(self) -> str:
        return (
            f"PartitionRunner(index={self.partition_index}, "
            f"now={self.engine.now:.1f}, tasks={self.tasks.owned_task_total()})"
        )


def standard_fleet(
    seed: int,
    total_tasks: int = 1_000,
    num_jobs: int = 10,
    num_shards: int = 64,
    duration: float = DAY_S,
    step_interval: float = 300.0,
    round_interval: float = 3600.0,
    stats_interval: Optional[float] = None,
) -> FleetSpec:
    """A reproducible mixed fleet: diurnal jobs with varied SLOs/failure.

    Every job parameter is derived from ``(seed, job_id)`` via
    :func:`stable_u01`, so the scenario is a pure function of its
    arguments — the golden determinism tests and the CLI build byte-wise
    identical fleets from the same numbers.
    """
    per_job = max(1, total_tasks // num_jobs)
    jobs: List[FleetJob] = []
    for i in range(num_jobs):
        job_id = f"job-{i:04d}"

        def u(label: str, job_id: str = job_id) -> float:
            return stable_u01(seed, f"fleet:{job_id}:{label}")

        jobs.append(
            FleetJob(
                job_id=job_id,
                task_count=per_job,
                base_rate_mb=per_job * (0.60 + 0.35 * u("base")),
                amplitude=0.20 + 0.40 * u("amp"),
                phase_hours=24.0 * u("phase"),
                rate_per_task_mb=1.0,
                lag_objective_s=60.0 + 240.0 * u("slo"),
                task_count_limit=per_job * 2,
                mtbf_s=DAY_S * (2.0 + 6.0 * u("mtbf")),
                restore_s=60.0 + 240.0 * u("restore"),
            )
        )
    return FleetSpec(
        jobs=tuple(jobs),
        seed=seed,
        num_shards=num_shards,
        step_interval=step_interval,
        round_interval=round_interval,
        duration=duration,
        stats_interval=stats_interval,
    )
