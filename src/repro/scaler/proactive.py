"""The proactive/preactive Auto Scaler — the paper's second generation.

Architecture per Fig. 4: Symptom Detector → Resource Estimator → Pattern
Analyzer → Plan Generator → Job Service. Each evaluation round builds a
:class:`JobSnapshot` per job, runs the pure decision pipeline, and applies
the resulting plan to the job's SCALER-level configuration through the Job
Service — never touching tasks directly, which is what keeps the three
management layers decoupled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.cluster.container import DEFAULT_CONTAINER_CAPACITY
from repro.cluster.resources import ResourceVector
from repro.jobs.configs import ConfigLevel
from repro.jobs.model import JobView
from repro.jobs.service import JobService
from repro.metrics.store import MetricStore
from repro.obs.telemetry import Telemetry
from repro.obs.trace import (
    NULL_TRACER,
    SLOT_SYMPTOM,
    SLOT_WRITE_ORIGIN,
    TraceEvent,
    Tracer,
)
from repro.scaler.detectors import SymptomDetector
from repro.scaler.estimators import ResourceEstimator
from repro.scaler.patterns import PatternAnalyzer
from repro.scaler.plan_generator import Action, PlanGenerator, ScalingDecision
from repro.scaler.snapshot import JobSnapshot, snapshot_job
from repro.resilience import CircuitBreaker, Dependency
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine, Timer
from repro.types import JobId, Priority, Seconds


@dataclass
class AutoScalerConfig:
    """Tunables of the proactive scaler."""

    #: Evaluation period.
    interval: Seconds = 120.0
    #: Quiet time before downscales are considered (the paper uses a day;
    #: benchmarks shrink it to keep runs short).
    downscale_after: Seconds = 86400.0
    #: Container shape from which the vertical-scaling limit is derived.
    container_capacity: ResourceVector = field(
        default_factory=lambda: DEFAULT_CONTAINER_CAPACITY
    )
    #: Multiplicative error applied to the staging-period P hint, to model
    #: imperfect bootstrap profiling (1.0 = perfect).
    bootstrap_error: float = 1.0
    #: Ablation switch for the preactive historical-workload pruning.
    pattern_history: bool = True
    #: "the next x hours" a downscale is validated against in history
    #: (section V-C); must cover the gap from trough to peak to be useful.
    pattern_validate_hours: float = 4.0
    #: Ablation switch for vertical-first scaling (section V-E).
    vertical_scaling: bool = True


@dataclass
class AppliedAction:
    """Audit record of one applied scaling decision."""

    time: Seconds
    job_id: JobId
    action: Action
    reason: str
    task_count: Optional[int] = None
    threads: Optional[int] = None
    #: Trace id of the causal chain that produced this action (if traced).
    trace_id: Optional[str] = None


class AutoScaler:
    """The proactive + preactive Auto Scaler (paper sections V-B/V-C)."""

    def __init__(
        self,
        engine: Engine,
        job_service: JobService,
        metrics: MetricStore,
        scribe: ScribeBus,
        config: Optional[AutoScalerConfig] = None,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._engine = engine
        self._service = job_service
        self._metrics = metrics
        self._scribe = scribe
        self.config = config or AutoScalerConfig()
        self._tracer = tracer or NULL_TRACER
        self.detector = SymptomDetector(tracer=self._tracer)
        self.estimator = ResourceEstimator()
        self.analyzer = PatternAnalyzer(
            metrics,
            validate_hours=self.config.pattern_validate_hours,
            history_enabled=self.config.pattern_history,
        )
        self.generator = PlanGenerator(
            self.analyzer,
            self.config.container_capacity,
            downscale_after=self.config.downscale_after,
            allow_vertical=self.config.vertical_scaling,
        )
        #: Capacity pressure floor: upscales below this priority are
        #: suppressed (set by the Capacity Manager, section V-F).
        self.priority_floor: Priority = Priority.LOW
        self.actions: List[AppliedAction] = []
        #: Untriaged problems reported for operator attention.
        self.untriaged: List[AppliedAction] = []
        self._timer: Optional[Timer] = None
        #: Per-job time of the last symptom, for the quiet-window check.
        self._last_unhealthy: Dict[JobId, Seconds] = {}
        #: Resilience edge toward the Job Service / Job Store: rounds are
        #: skipped while the store is out, and the breaker (reset at the
        #: evaluation interval, so every round probes) tracks the outage.
        self._store_dep = Dependency(
            "scaler.job-service",
            clock=lambda: engine.now,
            telemetry=telemetry,
            breaker=CircuitBreaker(
                failure_threshold=2, reset_timeout=self.config.interval
            ),
        )

    # ------------------------------------------------------------------
    # Periodic operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is None:
            self._timer = self._engine.every(
                self.config.interval, self.run_once, name="auto-scaler"
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def forget_job(self, job_id: JobId) -> None:
        """Drop a deleted job's quiet-window stamp and pattern state."""
        self._last_unhealthy.pop(job_id, None)
        self.analyzer.forget_job(job_id)

    def held_jobs(self) -> Set[JobId]:
        return {*self._last_unhealthy, *self.analyzer.held_jobs()}

    # ------------------------------------------------------------------
    # One evaluation round
    # ------------------------------------------------------------------
    def run_once(self) -> List[ScalingDecision]:
        """Evaluate every active job; returns the non-trivial decisions."""
        now = self._engine.now
        decisions = []
        job_ids = self._store_dep.probe(self._service.active_job_ids)
        if job_ids is None:
            # Job Store outage: no configs to read or patch. Skip the
            # round; running tasks are unaffected (degraded mode).
            return decisions
        for job_id in job_ids:
            decision = self._evaluate_job(job_id, now)
            if decision is not None and decision.action != Action.NONE:
                decisions.append(decision)
        return decisions

    def _evaluate_job(
        self, job_id: JobId, now: Seconds
    ) -> Optional[ScalingDecision]:
        view = self._service.view(job_id)
        category_name = view.input_category
        partitions = 0
        if category_name and category_name in self._scribe.categories:
            partitions = self._scribe.get_category(category_name).num_partitions
        snapshot = snapshot_job(
            job_id, view, self._metrics, now, input_partitions=partitions
        )
        if snapshot.running_tasks == 0 and snapshot.input_rate_mb == 0:
            return None  # nothing scheduled yet; no data to act on

        symptoms = self.detector.detect(snapshot)
        if not symptoms.healthy:
            self._last_unhealthy[job_id] = now
        bootstrap = view.rate_per_thread_mb * self.config.bootstrap_error
        rate = self.analyzer.rate_per_thread(job_id, bootstrap)
        # Claim (consume) the symptom event so it parents exactly the
        # decision it triggered and never a later unrelated one.
        trace = self._tracer.claim_context(job_id, SLOT_SYMPTOM)
        if rate is None:
            decision = self._refuse_hint(job_id, view, bootstrap, trace)
        else:
            acting = symptoms.lagging or symptoms.oom
            quiet = not acting and self._quiet_long_enough(snapshot)
            if not (acting or quiet):
                # Algorithm 2's else branch: no lag, no OOM, no quiet
                # window — ``decide`` would answer NONE from these alone.
                return None
            if symptoms.lagging:
                # A lagging job runs saturated: its throughput refines P.
                self.analyzer.observe_saturated_throughput(snapshot)
                rate = self.analyzer.rate_per_thread(job_id, bootstrap)
            decision = self.generator.decide(
                snapshot,
                symptoms,
                self.estimator.estimate(snapshot, rate),
                quiet_long_enough=quiet,
                priority_floor=self.priority_floor,
                trace=trace,
            )
        self._apply(snapshot, decision)
        return decision

    @staticmethod
    def _refuse_hint(
        job_id: JobId, view: JobView, bootstrap: float,
        trace: Optional[TraceEvent],
    ) -> ScalingDecision:
        """A job whose P hint cannot bootstrap an estimate is left alone
        and reported (every other job is still evaluated)."""
        return ScalingDecision(
            job_id, Action.UNTRIAGED,
            reason=(
                f"P hint rate_per_thread_mb={view.rate_per_thread_mb!r} "
                f"(bootstrap {bootstrap!r}) is not positive; not adopted"
            ),
            trace=trace,
        )

    def _quiet_long_enough(self, snapshot: JobSnapshot) -> bool:
        """True when no symptom fired within the configured quiet window
        and we have actually observed the job for that long."""
        now = snapshot.time
        window = self.config.downscale_after
        last_bad = self._last_unhealthy.get(snapshot.job_id)
        if last_bad is not None and now - last_bad < window:
            return False
        lag_series = self._metrics.row(snapshot.job_id).get("time_lagged")
        if lag_series is None:
            return False
        # The window's first sample is no older than the series' first, so
        # a series younger than 0.9 × the window fails here, in O(1).
        oldest = lag_series.earliest_time()
        if oldest is None or now - oldest < window * 0.9:
            return False
        first = lag_series.earliest_time(now - window)
        if first is None or now - first < window * 0.9:
            return False
        lags = lag_series.values_in(now - window, now)
        return bool(lags) and max(lags) <= 0.1 * snapshot.slo_lag_seconds

    # ------------------------------------------------------------------
    # Applying decisions
    # ------------------------------------------------------------------
    def _apply(self, snapshot: JobSnapshot, decision: ScalingDecision) -> None:
        record = AppliedAction(
            time=snapshot.time,
            job_id=snapshot.job_id,
            action=decision.action,
            reason=decision.reason,
            task_count=decision.task_count,
            threads=decision.threads,
        )
        if decision.action == Action.NONE:
            return
        event = self._tracer.record(
            "auto-scaler", f"action-{decision.action.value}",
            job_id=snapshot.job_id, parent=decision.trace,
            reason=decision.reason,
            task_count=decision.task_count,
            threads=decision.threads,
        )
        if event is not None:
            record.trace_id = event.trace_id
        if decision.action == Action.UNTRIAGED:
            # "When Turbine cannot determine the cause of an untriaged
            # problem, it fires operator alerts."
            self.untriaged.append(record)
            return
        if decision.action == Action.REBALANCE:
            self._rebalance_input(snapshot.job_id)
            self.actions.append(record)
            return
        patch: Dict = {}
        if decision.task_count is not None:
            patch["task_count"] = decision.task_count
        if decision.threads is not None:
            patch["threads_per_task"] = decision.threads
        resources = dict(self._service.view(snapshot.job_id).resources)
        if decision.memory_per_task_gb is not None:
            resources["memory_gb"] = round(decision.memory_per_task_gb, 3)
        if decision.cpu_per_task is not None:
            resources["cpu"] = round(decision.cpu_per_task, 3)
        if resources:
            patch["resources"] = resources
        # The scaler's action is the cause of the Job Store write it is
        # about to make; the Job Service links the write underneath it.
        self._tracer.set_context(snapshot.job_id, SLOT_WRITE_ORIGIN, event)
        self._service.patch(snapshot.job_id, ConfigLevel.SCALER, patch)
        self.actions.append(record)

    def _rebalance_input(self, job_id: JobId) -> None:
        """Even out the input traffic split across partitions.

        Models Scribe-level traffic rebalancing: partition assignment of
        messages is arbitrary, so the bus can redistribute producers across
        partitions, which "rebalance[s] input traffic amongst tasks".
        """
        category_name = self._service.view(job_id).input_category
        if category_name:
            self._scribe.get_category(category_name).set_weights(None)
