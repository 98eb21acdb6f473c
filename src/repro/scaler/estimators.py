"""Resource estimators — equations (2) and (3) plus the stateful models.

"The purpose of a Resource Estimator is to estimate the usage of a given
resource (e.g., CPU, memory, network bandwidth, and disk I/O) in a given
job." (paper section V-B).

For stateless jobs, CPU is the constraint and the estimate is

    tasks_needed = (X + B/t) / (P · k)          (equations 2 and 3)

where X is the input rate, B the backlog to recover within time t, P the
estimated max stable per-thread rate, and k the threads per task.

For stateful jobs, memory ∝ key cardinality (aggregations) and disk ∝ the
state size; both shrink per-task as parallelism grows, which is what makes
the plan generator's "correlated adjustment" possible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ScalerError
from repro.scaler.snapshot import JobSnapshot
from repro.tasks.runtime import (
    BASE_MEMORY_GB,
    BUFFER_SECONDS,
    DISK_GB_PER_MILLION_KEYS,
    STATE_GB_PER_MILLION_KEYS,
)

#: Safety margin applied on top of the raw CPU estimate so a job is not
#: sized exactly at its observed peak.
CPU_MARGIN = 0.2

#: Safety margin on per-task memory reservations.
MEMORY_MARGIN = 0.3


@dataclass(frozen=True)
class ResourceEstimate:
    """The estimator output for one job.

    ``min_task_count`` is the floor below which the job cannot keep up with
    its steady-state input — the number the plan generator refuses to
    downscale past ("It prevents downscaling decisions from causing a
    healthy job to become unhealthy").
    """

    #: Tasks needed for steady-state input (with margin), at current k.
    steady_task_count: int
    #: Tasks needed to also drain the backlog within the recovery budget.
    recovery_task_count: int
    #: Hard floor: steady state without margin.
    min_task_count: int
    #: Per-task reservations at ``recovery_task_count`` parallelism.
    memory_per_task_gb: float
    disk_per_task_gb: float
    cpu_per_task: float
    network_per_task_mbps: float = 0.0


class ResourceEstimator:
    """Computes :class:`ResourceEstimate` from a snapshot and estimated P."""

    def estimate(
        self, snapshot: JobSnapshot, rate_per_thread: float
    ) -> ResourceEstimate:
        """Estimate the job's needs given estimated per-thread rate ``P``.

        Raises :class:`ScalerError` for a non-positive ``P`` — an estimate
        of zero throughput would produce an infinite task count.
        """
        if rate_per_thread <= 0:
            raise ScalerError(
                f"rate_per_thread must be positive: {rate_per_thread}"
            )
        per_task_rate = rate_per_thread * max(1, snapshot.threads)

        x = max(0.0, snapshot.input_rate_mb)
        steady_raw = x / per_task_rate
        steady = max(1, math.ceil(steady_raw * (1.0 + CPU_MARGIN)))
        min_count = max(1, math.ceil(steady_raw))

        # Equation (3): include the backlog drained over the recovery budget.
        recovery_rate = x + snapshot.backlog_mb / snapshot.slo_recovery_seconds
        recovery = max(
            steady, math.ceil(recovery_rate / per_task_rate)
        )

        task_count_for_memory = max(1, recovery)
        memory = self._memory_per_task(snapshot, per_task_rate, task_count_for_memory)
        disk = self._disk_per_task(snapshot, task_count_for_memory)
        # One busy thread ≈ one core; reserve for all threads plus margin.
        cpu = max(1, snapshot.threads) * (1.0 + CPU_MARGIN)

        # Network: read + write the per-task throughput (MB/s → Mbit/s).
        per_task_throughput = (
            x / task_count_for_memory if task_count_for_memory else 0.0
        )
        network = per_task_throughput * 8.0 * 2.0 * (1.0 + CPU_MARGIN)

        return ResourceEstimate(
            steady_task_count=steady,
            recovery_task_count=recovery,
            min_task_count=min_count,
            memory_per_task_gb=memory,
            disk_per_task_gb=disk,
            cpu_per_task=cpu,
            network_per_task_mbps=network,
        )

    def _memory_per_task(
        self, snapshot: JobSnapshot, per_task_rate: float, task_count: int
    ) -> float:
        """Base footprint + input buffer + (stateful) key-cardinality term.

        "For an aggregation job, the memory size is proportional to the key
        cardinality of the input data kept in memory." (section V-B).
        """
        needed = BASE_MEMORY_GB + per_task_rate * BUFFER_SECONDS / 1000.0
        if snapshot.stateful and task_count > 0:
            keys_per_task = snapshot.state_key_cardinality / task_count
            needed += (keys_per_task / 1e6) * STATE_GB_PER_MILLION_KEYS
        return needed * (1.0 + MEMORY_MARGIN)

    def _disk_per_task(self, snapshot: JobSnapshot, task_count: int) -> float:
        if not snapshot.stateful or task_count <= 0:
            return 0.0
        keys_per_task = snapshot.state_key_cardinality / task_count
        return (keys_per_task / 1e6) * DISK_GB_PER_MILLION_KEYS
