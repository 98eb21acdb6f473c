"""The Scuba Tailer fleet model.

Scuba Tailer is "the largest stream processing service managed by Turbine"
(paper section VI). The published workload characteristics the model is
calibrated to:

* Fig. 5a — over 80 % of tasks consume less than one CPU thread; a small
  percentage need over four;
* Fig. 5b — every task consumes at least ~400 MB; over 99 % stay under
  2 GB;
* "For each task, CPU overhead has a near-linear relationship with the
  traffic volume, while memory consumption is proportional to the average
  message size."

Per-job input rates are log-normal (most tables are tiny, a few are huge);
the message-size-driven memory overhead is an independent log-normal. Both
draws come from a seeded stream, so a fleet is reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.cluster.resources import ResourceVector
from repro.jobs.model import JobSpec
from repro.sim.rng import SeededRng
from repro.tasks.runtime import BASE_MEMORY_GB, BUFFER_SECONDS
from repro.types import SLO, sum_in_order

#: Per-thread max stable processing rate of the tailer binary (MB/s).
#: One saturated thread ≈ one CPU core.
TAILER_RATE_PER_THREAD_MB = 2.0

#: Log-normal parameters for per-job input rate (MB/s): median 0.5,
#: sigma 1.2 ⇒ P(rate < 2 MB/s) ≈ 0.88 (Fig. 5a's ">80 % under one core")
#: and P(rate > 8 MB/s) ≈ 1 % (the ">4 threads" tail).
RATE_LOG_MEDIAN = 0.5
RATE_LOG_SIGMA = 1.2

#: Log-normal parameters for the message-size memory overhead (GB):
#: median 0.1, sigma 1.0 ⇒ total memory ≥ 0.4 GB always, ≈99 % < 2 GB
#: (Fig. 5b).
MEM_LOG_MEDIAN = 0.1
MEM_LOG_SIGMA = 1.0


#: Heaviest per-task rate before a table is split into more tasks. At
#: P = 2 MB/s this corresponds to a ~6-thread task — the right edge of
#: Fig. 5a's CPU axis.
MAX_TASK_RATE_MB = 12.0


@dataclass(frozen=True)
class ScubaJobProfile:
    """One Scuba table's tailer job: its true workload characteristics."""

    job_id: str
    #: Steady-state input rate of the table's category (MB/s).
    base_rate_mb: float
    #: Message-size-driven constant memory per task (GB).
    memory_overhead_gb: float
    #: Tasks the job is provisioned with.
    task_count: int
    #: Threads per task; heavy tables run multi-threaded tasks (the Fig. 5a
    #: tail of tasks needing over four CPU threads) rather than splitting
    #: into many single-thread tasks.
    threads_per_task: int = 1

    # ------------------------------------------------------------------
    # Analytic footprints (Fig. 5)
    # ------------------------------------------------------------------
    @property
    def per_task_rate_mb(self) -> float:
        return self.base_rate_mb / self.task_count

    @property
    def task_cpu_cores(self) -> float:
        """Cores one task burns at steady state (CPU ∝ traffic)."""
        return self.per_task_rate_mb / TAILER_RATE_PER_THREAD_MB

    @property
    def task_memory_gb(self) -> float:
        """Memory one task holds at steady state."""
        return (
            BASE_MEMORY_GB
            + self.memory_overhead_gb
            + self.per_task_rate_mb * BUFFER_SECONDS / 1000.0
        )

    # ------------------------------------------------------------------
    # Conversion to a provisionable spec
    # ------------------------------------------------------------------
    def to_job_spec(
        self,
        reservation_headroom: float = 0.3,
        task_count_limit: int = 32,
    ) -> JobSpec:
        """A :class:`JobSpec` whose reservations cover the true footprint."""
        memory = self.task_memory_gb * (1.0 + reservation_headroom)
        cpu = max(0.1, self.task_cpu_cores * (1.0 + reservation_headroom))
        return JobSpec(
            job_id=self.job_id,
            input_category=f"scuba/{self.job_id.rsplit('/', 1)[-1]}",
            task_count=self.task_count,
            threads_per_task=self.threads_per_task,
            resources_per_task=ResourceVector(
                cpu=round(cpu, 3), memory_gb=round(memory, 3)
            ),
            rate_per_thread_mb=TAILER_RATE_PER_THREAD_MB,
            memory_overhead_gb=round(self.memory_overhead_gb, 3),
            task_count_limit=task_count_limit,
            slo=SLO(max_lag_seconds=90.0),
        )


class ScubaFleet:
    """A reproducible fleet of Scuba tailer jobs."""

    def __init__(self, num_jobs: int, seed: int = 0) -> None:
        if num_jobs <= 0:
            raise ValueError(f"num_jobs must be positive: {num_jobs}")
        self.num_jobs = num_jobs
        self.seed = seed
        self.profiles: List[ScubaJobProfile] = self._generate()

    def _generate(self) -> List[ScubaJobProfile]:
        rng = SeededRng(self.seed).fork("scuba-fleet")
        profiles = []
        for index in range(self.num_jobs):
            rate = RATE_LOG_MEDIAN * math.exp(
                rng.gauss(0.0, RATE_LOG_SIGMA)
            )
            overhead = MEM_LOG_MEDIAN * math.exp(
                rng.gauss(0.0, MEM_LOG_SIGMA)
            )
            # Heavy tables first grow threads within one task (the
            # multi-threaded tail of Fig. 5a); only tables beyond the
            # per-task ceiling are split into more tasks.
            task_count = max(1, math.ceil(rate / MAX_TASK_RATE_MB))
            per_task_rate = rate / task_count
            threads = max(
                1,
                math.ceil(per_task_rate / (TAILER_RATE_PER_THREAD_MB * 0.8)),
            )
            profiles.append(
                ScubaJobProfile(
                    job_id=f"scuba/table-{index:05d}",
                    base_rate_mb=rate,
                    memory_overhead_gb=overhead,
                    task_count=task_count,
                    threads_per_task=threads,
                )
            )
        return profiles

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def total_rate_mb(self) -> float:
        """Fleet-wide input traffic (MB/s)."""
        return sum_in_order(profile.base_rate_mb for profile in self.profiles)

    def total_tasks(self) -> int:
        return sum(profile.task_count for profile in self.profiles)

    def task_footprints(self) -> Tuple[List[float], List[float]]:
        """Per-task ``(cpu_cores, memory_gb)`` samples for the Fig. 5 CDFs."""
        cpus: List[float] = []
        memories: List[float] = []
        for profile in self.profiles:
            cpus.extend([profile.task_cpu_cores] * profile.task_count)
            memories.extend([profile.task_memory_gb] * profile.task_count)
        return cpus, memories

    def job_specs(
        self, task_count_limit: int = 32, reservation_headroom: float = 0.3
    ) -> List[JobSpec]:
        """Provisionable specs for the whole fleet."""
        return [
            profile.to_job_spec(
                reservation_headroom=reservation_headroom,
                task_count_limit=task_count_limit,
            )
            for profile in self.profiles
        ]
