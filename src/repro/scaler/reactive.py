"""The first-generation reactive Auto Scaler (Algorithm 2).

"The first generation of the auto scaler was similar to Dhalion. It
consisted of a collection of Symptom Detectors and Diagnosis Resolvers and
was purely reactive." (paper section V-A). It is kept as a baseline for the
ablation benchmarks: it has no resource estimates, so it converges slowly
(doubling on lag), can downscale healthy jobs into unhealthy ones, and
cannot tell untriaged problems from capacity problems — exactly the
failure modes the paper lists as motivation for the proactive redesign.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.errors import DegradedModeError
from repro.jobs.configs import ConfigLevel
from repro.jobs.service import JobService
from repro.metrics.store import MetricStore
from repro.scaler.detectors import SymptomDetector
from repro.scaler.snapshot import JobSnapshot, snapshot_job
from repro.scribe.bus import ScribeBus
from repro.sim.engine import Engine, Timer
from repro.types import Seconds

#: Multiplier applied to task count when lagging.
UPSCALE_FACTOR = 2.0
#: Memory growth factor on OOM.
OOM_MEMORY_FACTOR = 1.5
#: Quiet time before attempting a downscale ("no OOM, no lag is detected
#: in a day").
DOWNSCALE_AFTER: Seconds = 86400.0
#: Tasks removed per downscale round (slow, cautious decay).
DOWNSCALE_STEP = 1


@dataclass
class ReactiveConfig:
    """Tunables of the reactive scaler."""

    #: Evaluation period.
    interval: Seconds = 120.0


@dataclass
class ReactiveAction:
    """Audit record of one reactive decision."""

    time: Seconds
    job_id: str
    kind: str
    detail: str = ""


class ReactiveAutoScaler:
    """Algorithm 2, verbatim: react to symptoms with fixed-step changes."""

    def __init__(
        self,
        engine: Engine,
        job_service: JobService,
        metrics: MetricStore,
        scribe: ScribeBus,
        config: Optional[ReactiveConfig] = None,
    ) -> None:
        self._engine = engine
        self._service = job_service
        self._metrics = metrics
        self._scribe = scribe
        self.config = config or ReactiveConfig()
        self._detector = SymptomDetector()
        self.actions: List[ReactiveAction] = []
        self._timer: Optional[Timer] = None

    def start(self) -> None:
        if self._timer is None:
            self._timer = self._engine.every(
                self.config.interval, self.run_once, name="reactive-scaler"
            )

    def forget_job(self, job_id: str) -> None:
        """Algorithm 2 carries nothing per job from round to round."""

    def held_jobs(self) -> tuple:
        return ()

    # ------------------------------------------------------------------
    # One evaluation round — Algorithm 2
    # ------------------------------------------------------------------
    def run_once(self) -> None:
        now = self._engine.now
        try:
            job_ids = self._service.active_job_ids()
        except DegradedModeError:
            return  # Job Store outage: skip the round (degraded mode).
        for job_id in job_ids:
            view = self._service.view(job_id)
            snapshot = snapshot_job(job_id, view, self._metrics, now)
            self._evaluate(snapshot)

    def _evaluate(self, snapshot: JobSnapshot) -> None:
        symptoms = self._detector.detect(snapshot)
        if symptoms.lagging:                       # line 2
            if symptoms.imbalanced and snapshot.task_count > 1:   # line 3
                self._rebalance(snapshot)          # line 4
            else:
                self._increase_tasks(snapshot)     # line 6
        elif symptoms.oom:                          # line 8
            self._increase_memory(snapshot)        # line 9
        elif self._quiet_long_enough(snapshot):     # line 10
            self._decrease_tasks(snapshot)         # line 11

    # ------------------------------------------------------------------
    # Resolvers
    # ------------------------------------------------------------------
    def _rebalance(self, snapshot: JobSnapshot) -> None:
        category_name = self._service.view(snapshot.job_id).input_category
        if category_name:
            self._scribe.get_category(category_name).set_weights(None)
        self._record(snapshot, "rebalance", "evened input traffic")

    def _increase_tasks(self, snapshot: JobSnapshot) -> None:
        new_count = min(
            max(
                snapshot.task_count + 1,
                int(snapshot.task_count * UPSCALE_FACTOR),
            ),
            snapshot.task_count_limit,
        )
        if new_count <= snapshot.task_count:
            return
        self._service.patch(
            snapshot.job_id, ConfigLevel.SCALER, {"task_count": new_count}
        )
        self._record(
            snapshot, "upscale",
            f"{snapshot.task_count} -> {new_count} tasks",
        )

    def _increase_memory(self, snapshot: JobSnapshot) -> None:
        current = snapshot.memory_per_task_gb or 0.5
        target = round(current * OOM_MEMORY_FACTOR, 3)
        resources = dict(self._service.view(snapshot.job_id).resources)
        resources["memory_gb"] = target
        self._service.patch(
            snapshot.job_id, ConfigLevel.SCALER, {"resources": resources}
        )
        self._record(snapshot, "memory", f"{current:.2f} -> {target:.2f} GB")

    def _decrease_tasks(self, snapshot: JobSnapshot) -> None:
        new_count = snapshot.task_count - DOWNSCALE_STEP
        if new_count < 1:
            return
        self._service.patch(
            snapshot.job_id, ConfigLevel.SCALER, {"task_count": new_count}
        )
        self._record(
            snapshot, "downscale",
            f"{snapshot.task_count} -> {new_count} tasks",
        )

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _quiet_long_enough(self, snapshot: JobSnapshot) -> bool:
        """No lag above 10 % of SLO and no OOM for the whole quiet window."""
        now = snapshot.time
        window = DOWNSCALE_AFTER
        row = self._metrics.row(snapshot.job_id)
        lag_series = row.get("time_lagged")
        lags = lag_series.values_in(now - window, now) if lag_series else ()
        if not lags:
            return False
        earliest = lag_series.window(now - window, now)[0][0]
        if now - earliest < window * 0.9:
            return False  # not enough history to call it quiet
        if max(lags) > 0.1 * snapshot.slo_lag_seconds:
            return False
        oom_series = row.get("oom_events")
        return not (oom_series and oom_series.values_in(now - window, now))

    def _record(self, snapshot: JobSnapshot, kind: str, detail: str) -> None:
        self.actions.append(
            ReactiveAction(snapshot.time, snapshot.job_id, kind, detail)
        )
