"""The Plan Generator — synthesized scaling decisions.

"The Plan Generator makes a synthesized decision based on symptoms and
resource estimates collected." (paper section V-B). Its safety rules:

1. never downscale a healthy job below its estimated floor;
2. untriaged problems (symptoms without a resource explanation) never
   trigger scaling — they raise operator alerts instead (section V-D);
3. multi-resource adjustments are correlated (more tasks → less memory per
   task for stateful jobs);
4. vertical scaling is preferred until the per-task footprint reaches the
   1/5-of-container limit, then horizontal takes over (section V-E).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional

from repro.cluster.resources import ResourceVector
from repro.obs.trace import TraceEvent
from repro.scaler.detectors import JobSymptoms
from repro.scaler.estimators import ResourceEstimate
from repro.scaler.patterns import PatternAnalyzer
from repro.scaler.snapshot import JobSnapshot
from repro.tasks.spec import VERTICAL_LIMIT_FRACTION
from repro.types import Priority

#: Factor by which reserved memory grows on OOM.
OOM_MEMORY_GROWTH = 1.5


class Action(enum.Enum):
    """What the generator decided to do for a job this round."""

    NONE = "none"
    UPSCALE_VERTICAL = "upscale_vertical"
    UPSCALE_HORIZONTAL = "upscale_horizontal"
    DOWNSCALE = "downscale"
    REBALANCE = "rebalance"
    MEMORY_INCREASE = "memory_increase"
    UNTRIAGED = "untriaged"


@dataclass
class ScalingDecision:
    """The generator's output for one job."""

    job_id: str
    action: Action
    reason: str = ""
    #: Target settings — only meaningful for scaling actions.
    task_count: Optional[int] = None
    threads: Optional[int] = None
    memory_per_task_gb: Optional[float] = None
    cpu_per_task: Optional[float] = None
    #: Causal origin (the detector symptom event) when tracing is on.
    trace: Optional[TraceEvent] = None


class PlanGenerator:
    """Combines symptoms, estimates, and patterns into one decision."""

    def __init__(
        self,
        analyzer: PatternAnalyzer,
        container_capacity: ResourceVector,
        downscale_after: float = 86400.0,
        allow_vertical: bool = True,
    ) -> None:
        self._analyzer = analyzer
        #: "the upper limit of vertical scaling is set to a portion of
        #: resources available in a single container (typically 1/5)".
        self.vertical_limit = container_capacity.scaled(VERTICAL_LIMIT_FRACTION)
        self.downscale_after = downscale_after
        #: Ablation switch: with vertical scaling disabled every capacity
        #: increase is horizontal (the policy the paper argues against).
        self.allow_vertical = allow_vertical

    @property
    def max_threads(self) -> int:
        """Thread ceiling implied by the vertical CPU limit (≥ 1)."""
        if not self.allow_vertical:
            return 1
        return max(1, int(self.vertical_limit.cpu))

    # ------------------------------------------------------------------
    # Decision
    # ------------------------------------------------------------------
    def decide(
        self,
        snapshot: JobSnapshot,
        symptoms: JobSymptoms,
        estimate: ResourceEstimate,
        quiet_long_enough: bool,
        priority_floor: Priority = Priority.LOW,
        trace: Optional[TraceEvent] = None,
    ) -> ScalingDecision:
        """One decision for one job.

        ``quiet_long_enough`` is the caller's verdict on "no OOM, no lag
        ... detected in a day" (Algorithm 2 line 10); the generator does
        not read raw history itself. ``trace`` is the symptom event that
        prompted this evaluation (if any); it is propagated onto the
        decision so applying it links the action back to its cause.
        """
        decision = self._decide(
            snapshot, symptoms, estimate, quiet_long_enough, priority_floor
        )
        decision.trace = trace
        return decision

    def _decide(
        self,
        snapshot: JobSnapshot,
        symptoms: JobSymptoms,
        estimate: ResourceEstimate,
        quiet_long_enough: bool,
        priority_floor: Priority,
    ) -> ScalingDecision:
        if symptoms.lagging:
            return self._handle_lag(snapshot, symptoms, estimate, priority_floor)
        if symptoms.oom:
            return self._handle_oom(snapshot, estimate, priority_floor)
        if quiet_long_enough:
            return self._consider_downscale(snapshot, estimate)
        return ScalingDecision(snapshot.job_id, Action.NONE)

    # ------------------------------------------------------------------
    # Lag path
    # ------------------------------------------------------------------
    def _handle_lag(
        self,
        snapshot: JobSnapshot,
        symptoms: JobSymptoms,
        estimate: ResourceEstimate,
        priority_floor: Priority,
    ) -> ScalingDecision:
        # Was this lag caused by our own recent downscale? Then P was too
        # high — the analyzer corrected it; scale straight back up.
        if self._analyzer.observe_slo_violation(snapshot):
            return self._upscale(
                snapshot, estimate, priority_floor,
                reason="SLO violation after downscale; restoring capacity",
            )
        if symptoms.imbalanced and snapshot.task_count > 1:
            # Algorithm 2 line 3–4: rebalance rather than add resources.
            return ScalingDecision(
                snapshot.job_id, Action.REBALANCE,
                reason="lag with imbalanced input; rebalancing traffic",
            )
        if estimate.recovery_task_count > snapshot.task_count:
            return self._upscale(
                snapshot, estimate, priority_floor,
                reason=(
                    f"lag {snapshot.time_lagged:.0f}s > SLO "
                    f"{snapshot.slo_lag_seconds:.0f}s; "
                    f"need {estimate.recovery_task_count} tasks"
                ),
            )
        # Lagging, balanced, and the estimates say resources are
        # sufficient: something else is wrong (dependency failure, bad
        # update, hardware). Scaling "may amplify the original problem".
        return ScalingDecision(
            snapshot.job_id, Action.UNTRIAGED,
            reason="lag with sufficient estimated resources; needs triage",
        )

    def _upscale(
        self,
        snapshot: JobSnapshot,
        estimate: ResourceEstimate,
        priority_floor: Priority,
        reason: str,
    ) -> ScalingDecision:
        if snapshot.priority < priority_floor:
            return ScalingDecision(
                snapshot.job_id, Action.NONE,
                reason="upscale suppressed: cluster capacity pressure "
                       "prioritizes privileged jobs",
            )
        required_threads_total = estimate.recovery_task_count * max(
            1, snapshot.threads
        )
        # Vertical first: grow threads per task up to the 1/5 limit.
        vertical_threads = math.ceil(
            required_threads_total / max(1, snapshot.task_count)
        )
        if (
            vertical_threads <= self.max_threads
            and vertical_threads > snapshot.threads
        ):
            memory = self._cap_memory(estimate.memory_per_task_gb)
            return ScalingDecision(
                snapshot.job_id, Action.UPSCALE_VERTICAL, reason=reason,
                task_count=snapshot.task_count,
                threads=vertical_threads,
                memory_per_task_gb=memory,
                cpu_per_task=min(
                    self.vertical_limit.cpu, float(vertical_threads)
                ),
            )
        # Horizontal: max out threads, then add tasks (capped by the job's
        # task-count limit — the Fig. 8 "default upper limit" behaviour).
        threads = max(snapshot.threads, self.max_threads)
        task_count = math.ceil(required_threads_total / threads)
        task_count = min(task_count, snapshot.task_count_limit)
        if snapshot.input_partitions > 0:
            # Each partition has exactly one reader: tasks beyond the
            # partition count would sit idle, so cap there.
            task_count = min(task_count, snapshot.input_partitions)
        task_count = max(task_count, snapshot.task_count)
        if task_count == snapshot.task_count and threads == snapshot.threads:
            return ScalingDecision(
                snapshot.job_id, Action.NONE,
                reason="already at task-count limit",
            )
        memory = self._cap_memory(
            self._correlated_memory(snapshot, estimate, task_count)
        )
        return ScalingDecision(
            snapshot.job_id, Action.UPSCALE_HORIZONTAL, reason=reason,
            task_count=task_count, threads=threads,
            memory_per_task_gb=memory,
            cpu_per_task=min(self.vertical_limit.cpu, float(threads)),
        )

    # ------------------------------------------------------------------
    # OOM path
    # ------------------------------------------------------------------
    def _handle_oom(
        self,
        snapshot: JobSnapshot,
        estimate: ResourceEstimate,
        priority_floor: Priority,
    ) -> ScalingDecision:
        current = snapshot.memory_per_task_gb
        target = max(current * OOM_MEMORY_GROWTH, estimate.memory_per_task_gb)
        if target <= self.vertical_limit.memory_gb:
            return ScalingDecision(
                snapshot.job_id, Action.MEMORY_INCREASE,
                reason=f"OOM detected; memory {current:.2f} → {target:.2f} GB",
                task_count=snapshot.task_count,
                threads=snapshot.threads,
                memory_per_task_gb=target,
                cpu_per_task=snapshot.cpu_per_task or float(snapshot.threads),
            )
        # Per-task memory at the vertical limit: go horizontal, which
        # shrinks the per-task state footprint (correlated adjustment).
        if snapshot.priority < priority_floor:
            return ScalingDecision(
                snapshot.job_id, Action.NONE,
                reason="OOM upscale suppressed by capacity pressure",
            )
        task_count = min(snapshot.task_count * 2, snapshot.task_count_limit)
        if task_count <= snapshot.task_count:
            return ScalingDecision(
                snapshot.job_id, Action.UNTRIAGED,
                reason="OOM at vertical limit and task-count limit",
            )
        memory = self._cap_memory(
            self._correlated_memory(snapshot, estimate, task_count)
        )
        return ScalingDecision(
            snapshot.job_id, Action.UPSCALE_HORIZONTAL,
            reason="OOM at vertical memory limit; scaling horizontally",
            task_count=task_count, threads=snapshot.threads,
            memory_per_task_gb=memory,
            cpu_per_task=snapshot.cpu_per_task or float(snapshot.threads),
        )

    # ------------------------------------------------------------------
    # Downscale path
    # ------------------------------------------------------------------
    def _consider_downscale(
        self, snapshot: JobSnapshot, estimate: ResourceEstimate
    ) -> ScalingDecision:
        target = estimate.steady_task_count
        if target >= snapshot.task_count:
            if target > snapshot.task_count:
                # n' > n: our P estimate must be too small — correct it and
                # skip (Pattern Analyzer, resource adjustment data).
                self._analyzer.observe_underestimate(snapshot)
                return ScalingDecision(
                    snapshot.job_id, Action.NONE,
                    reason="estimate exceeded current count; "
                           "adjusted P upward and skipped",
                )
            return ScalingDecision(snapshot.job_id, Action.NONE)
        # Never below the hard floor.
        target = max(target, estimate.min_task_count, 1)
        verdict = self._analyzer.validate_downscale(snapshot, target)
        if not verdict.allowed:
            return ScalingDecision(
                snapshot.job_id, Action.NONE,
                reason=f"downscale vetoed: {verdict.reason}",
            )
        self._analyzer.record_downscale(snapshot, target)
        memory = self._cap_memory(
            self._correlated_memory(snapshot, estimate, target)
        )
        return ScalingDecision(
            snapshot.job_id, Action.DOWNSCALE,
            reason=(
                f"quiet; shrinking {snapshot.task_count} → {target} tasks"
            ),
            task_count=target, threads=snapshot.threads,
            memory_per_task_gb=memory,
            cpu_per_task=snapshot.cpu_per_task or float(snapshot.threads),
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _correlated_memory(
        self, snapshot: JobSnapshot, estimate: ResourceEstimate, task_count: int
    ) -> float:
        """Re-derive per-task memory at a different parallelism.

        "if a stateful job is bottlenecked on CPU, and the number of tasks
        is increased, the memory allocated to each task can be reduced."
        """
        if not snapshot.stateful or task_count <= 0:
            return estimate.memory_per_task_gb
        base_count = max(1, estimate.recovery_task_count)
        state_part = estimate.disk_per_task_gb  # ∝ keys/task at base_count
        # Rescale the cardinality-driven portion by the count ratio; the
        # buffer/base portion is parallelism-independent.
        from repro.tasks.runtime import STATE_GB_PER_MILLION_KEYS

        keys_per_task = snapshot.state_key_cardinality / task_count
        non_state = estimate.memory_per_task_gb - (
            snapshot.state_key_cardinality / base_count / 1e6
        ) * STATE_GB_PER_MILLION_KEYS * 1.3
        state = (keys_per_task / 1e6) * STATE_GB_PER_MILLION_KEYS * 1.3
        return max(0.5, non_state + state)

    def _cap_memory(self, memory_gb: float) -> float:
        return min(memory_gb, self.vertical_limit.memory_gb)
