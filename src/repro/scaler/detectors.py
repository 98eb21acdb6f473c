"""Symptom detectors.

The first-generation scaler "consisted of a collection of Symptom Detectors
and Diagnosis Resolvers ... It monitored pre-configured symptoms of
misbehavior such as lag or backlog, imbalanced input, and tasks running out
of memory (OOM)." (paper section V-A). The detectors survive unchanged into
the proactive generation — what changed is what happens *after* detection.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from repro.obs.trace import NULL_TRACER, SLOT_SYMPTOM, Tracer
from repro.scaler.snapshot import JobSnapshot

#: Relative spread of per-task processing rates above which the input is
#: considered imbalanced (stdev / mean).
IMBALANCE_THRESHOLD = 0.5


class JobSymptoms(NamedTuple):
    """The detector verdict for one job (immutable; one per job per round)."""

    lagging: bool
    imbalanced: bool
    oom: bool

    @property
    def healthy(self) -> bool:
        return not (self.lagging or self.imbalanced or self.oom)


class SymptomDetector:
    """Turns a job snapshot into symptoms."""

    def __init__(self, tracer: Optional[Tracer] = None) -> None:
        self._tracer = tracer or NULL_TRACER

    def detect(self, snapshot: JobSnapshot) -> JobSymptoms:
        """Evaluate lag (equation 1 vs SLO), imbalance, and OOM.

        An unhealthy verdict roots a new causal trace: the symptom event
        is published for the scaler so whatever action it takes links back
        here (the start of the "why" chain for the resulting change).
        """
        symptoms = JobSymptoms(
            lagging=snapshot.lagging,
            imbalanced=self._is_imbalanced(snapshot),
            oom=snapshot.oom_recently,
        )
        if self._tracer.enabled and not symptoms.healthy:
            event = self._tracer.record(
                "detector", "symptom", job_id=snapshot.job_id,
                lagging=symptoms.lagging,
                imbalanced=symptoms.imbalanced,
                oom=symptoms.oom,
                time_lagged=round(snapshot.time_lagged, 3),
                slo=snapshot.slo_lag_seconds,
            )
            self._tracer.set_context(snapshot.job_id, SLOT_SYMPTOM, event)
        return symptoms

    def _is_imbalanced(self, snapshot: JobSnapshot) -> bool:
        """"Imbalanced input is measured by the standard deviation of
        processing rate across all the tasks belonging to the same job."

        A single-task job cannot be imbalanced, and an idle job's spread is
        noise, so both are excluded.
        """
        if snapshot.running_tasks <= 1:
            return False
        mean_rate = snapshot.per_task_rate
        if mean_rate <= 1e-9:
            return False
        return snapshot.task_rate_stdev / mean_rate > IMBALANCE_THRESHOLD
