"""Declarative SLOs: error budgets and multi-window burn-rate alerts.

An :class:`SloSpec` turns an SLI (:mod:`repro.obs.sli`) into an
objective: "lag under the job's declared bound for 99% of minutes over
the trailing 6 hours". The :class:`SloTracker` evaluates every spec for
every job on a fixed cadence and keeps the bookkeeping the Google SRE
playbook asks for:

* **good/bad samples** — each evaluation lands a 0/1 ``slo_bad`` sample
  in a private :class:`~repro.metrics.store.MetricStore`, so every burn
  rate and budget read below is one ``average_over`` (a C rescan of the
  window's slice) — never perturbed by a chaos ``metric-gap`` fault
  against the platform store. Reads create nothing: a (job, SLO) pair
  with no sample yet burns 0.0;
* **burn rate** — bad fraction over a window divided by the budget
  fraction ``1 - target``. Burn 1.0 spends the budget exactly at the
  compliance horizon; 14.4 spends a 30-day budget in 2 days;
* **multi-window multi-burn alerts** — a rule fires only when both its
  long and short windows burn above the threshold (the long window for
  significance, the short one to stop alerting once the fire is out);
  fired alerts reuse the :class:`repro.ops.health.Alert` shape and a
  :class:`~repro.obs.bounded.BoundedList`, the platform's one alert
  pipeline;
* **breach windows** — contiguous bad intervals per (job, SLO), exported
  with the error budget burned so a chaos drill can say "this fault cost
  4.1 minutes of breach and 12% of the lag budget".

Everything is driven by the simulation clock and the deterministic
metric plane: same seed, byte-identical reports.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.metrics.store import MetricStore
from repro.obs.bounded import BoundedList
from repro.obs.sli import SLI_NAMES, SliEvaluator
from repro.types import JobId, Seconds

#: Default evaluation cadence: one judgement per simulated minute, the
#: same cadence the stats collector lands the underlying metrics at.
EVAL_INTERVAL: Seconds = 60.0

#: Retained breach windows / alerts (same cap as health reports).
DEFAULT_RETENTION = 8_640


@dataclass(frozen=True)
class SloSpec:
    """One service-level objective over one SLI.

    ``threshold`` is the good/bad boundary for the SLI value;
    ``comparator`` is which side is good (``"<="``: values at or under
    the threshold are good). A ``threshold`` of ``None`` means per-job:
    the job's own declared lag objective is used (only meaningful for
    the ``lag_seconds`` SLI).
    """

    name: str
    sli: str
    target: float                 # fraction of good evaluations, e.g. 0.99
    compliance_window: Seconds    # error-budget horizon, e.g. 6 h
    threshold: Optional[float] = None
    comparator: str = "<="
    runbook: str = ""

    def __post_init__(self) -> None:
        if self.sli not in SLI_NAMES:
            raise ValueError(f"unknown SLI {self.sli!r}")
        if not 0.0 < self.target < 1.0:
            raise ValueError(f"target must be in (0, 1): {self.target}")
        if self.compliance_window <= 0:
            raise ValueError("compliance window must be positive")
        if self.comparator not in ("<=", ">="):
            raise ValueError(f"comparator must be '<=' or '>=': {self.comparator!r}")

    @property
    def budget_fraction(self) -> float:
        """The error budget: the tolerated bad fraction, ``1 - target``."""
        return 1.0 - self.target

    def is_good(self, value: float, threshold: float) -> bool:
        if self.comparator == "<=":
            return value <= threshold
        return value >= threshold


@dataclass(frozen=True)
class BurnRateRule:
    """One multi-window burn-rate alert condition."""

    long_window: Seconds
    short_window: Seconds
    burn_threshold: float
    severity: str  # "page" | "warn"

    def __post_init__(self) -> None:
        if self.short_window >= self.long_window:
            raise ValueError("short window must be shorter than long window")
        if self.burn_threshold <= 0:
            raise ValueError("burn threshold must be positive")


#: The canonical Google-SRE pairing: a fast page (14.4× burn sustained
#: over 1 h, still burning over 5 min) and a slow ticket (6× over 6 h,
#: still burning over 30 min).
DEFAULT_BURN_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule(3600.0, 300.0, 14.4, "page"),
    BurnRateRule(21600.0, 1800.0, 6.0, "warn"),
)


def default_slo_specs() -> Tuple[SloSpec, ...]:
    """The fleet's default objectives, one per defined SLI."""
    return (
        SloSpec(
            name="lag", sli="lag_seconds", target=0.99,
            compliance_window=6 * 3600.0, threshold=None,
            runbook="check Auto Scaler actions for the job; if fleet-wide, "
                    "suspect a shared dependency and do not mass-scale",
        ),
        SloSpec(
            name="freshness", sli="freshness_seconds", target=0.99,
            compliance_window=6 * 3600.0, threshold=180.0,
            runbook="metrics are stale: check metric-store ingestion and "
                    "the job stats collector before trusting any dashboard",
        ),
        SloSpec(
            name="availability", sli="availability", target=0.999,
            compliance_window=6 * 3600.0, threshold=0.9, comparator=">=",
            runbook="tasks missing: check Shard Manager failovers, host "
                    "availability, and recent sync plans",
        ),
        SloSpec(
            name="oom", sli="oom_rate", target=0.999,
            compliance_window=6 * 3600.0, threshold=0.0,
            runbook="repeated OOM kills: check the vertical scaler's memory "
                    "headroom and the job's recent input growth",
        ),
        SloSpec(
            name="recovery", sli="task.recovery_lag", target=0.99,
            compliance_window=6 * 3600.0, threshold=120.0,
            runbook="slow task recovery: check checkpoint-plane restores "
                    "(cold restarts re-read the whole backlog), whether the "
                    "job should opt into hot standbys, and the Shard "
                    "Manager's failover backlog",
        ),
    )


@dataclass
class BreachWindow:
    """One contiguous bad interval for one (job, SLO)."""

    job_id: JobId
    slo: str
    start: Seconds
    end: Optional[Seconds] = None  # None while the breach is still open

    @property
    def open(self) -> bool:
        return self.end is None

    def duration(self, now: Seconds) -> Seconds:
        return (now if self.end is None else self.end) - self.start

    def to_dict(self, now: Seconds) -> Dict[str, object]:
        return {
            "job": self.job_id,
            "slo": self.slo,
            "start": round(self.start, 3),
            "end": None if self.end is None else round(self.end, 3),
            "duration": round(self.duration(now), 3),
        }


# ----------------------------------------------------------------------
# Burn-rate math (shared with the full-walk reference)
# ----------------------------------------------------------------------
def bad_fraction(series, window: Seconds, now: Seconds) -> float:
    """Mean of the 0/1 bad samples over the trailing window (0 if empty).

    ``series`` is a bookkeeping :class:`~repro.metrics.series.TimeSeries`
    of 0/1 samples, or ``None`` for a pair never judged; this is the read
    the SLO plane leans on fleet-wide every minute.
    """
    mean = None if series is None else series.average_over(window, now)
    return 0.0 if mean is None else mean


def burn_rate(series, window: Seconds, now: Seconds, target: float) -> float:
    """How many times faster than sustainable the budget is burning."""
    return bad_fraction(series, window, now) / (1.0 - target)


class SloTracker:
    """Evaluates every SLO for every job and accounts the error budgets."""

    def __init__(
        self,
        engine,
        sli: SliEvaluator,
        specs: Optional[Tuple[SloSpec, ...]] = None,
        rules: Tuple[BurnRateRule, ...] = DEFAULT_BURN_RULES,
        interval: Seconds = EVAL_INTERVAL,
        telemetry=None,
        retention: int = DEFAULT_RETENTION,
    ) -> None:
        from repro.ops.health import Alert  # shared alert shape

        self._alert_cls = Alert
        self._engine = engine
        self._sli = sli
        self.specs: Tuple[SloSpec, ...] = (
            specs if specs is not None else default_slo_specs()
        )
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.rules = rules
        self._interval = interval
        self._telemetry = telemetry
        #: Private bookkeeping store for the 0/1 bad samples. Separate
        #: from the platform store on purpose: a chaos ``metric-gap``
        #: fault must not silently erase the very breach it causes, and
        #: budget accounting must survive any platform-store outage.
        horizon = max(spec.compliance_window for spec in self.specs)
        self._store = MetricStore(default_retention=horizon * 1.25)
        self.alerts: List = BoundedList(maxlen=retention)
        self.breaches: List[BreachWindow] = BoundedList(maxlen=retention)
        #: (job, slo) -> open breach (also present in ``breaches``).
        self._open: Dict[Tuple[JobId, str], BreachWindow] = {}
        #: (job, slo, rule index) currently above threshold (edge trigger).
        self._firing: Dict[Tuple[JobId, str, int], bool] = {}
        #: (job, index into ``specs``) -> time of the newest bad sample,
        #: kept while that sample is inside some rule's short window.
        #: These are the only pairs a burn-rate rule can fire for.
        self._last_bad: Dict[Tuple[JobId, int], Seconds] = {}
        self._burn_horizon: Seconds = max(
            (rule.short_window for rule in rules), default=0.0
        )
        self._sli_names = tuple(spec.sli for spec in self.specs)
        self._bad_metrics = tuple(f"slo_bad.{spec.name}" for spec in self.specs)
        self.evaluations = 0
        self._timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is None:
            self._timer = self._engine.every(
                self._interval, self.evaluate_once, name="slo-tracker"
            )

    def stop(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def forget_job(self, job_id: JobId) -> None:
        """End a deleted job's open breaches and drop its alert edges: a
        series nobody writes any more must not fire as its good samples
        age out. Samples, past breaches and alerts are the record; kept."""
        for index, spec in enumerate(self.specs):
            breach = self._open.pop((job_id, spec.name), None)
            if breach is not None:
                breach.end = self._engine.now
            self._last_bad.pop((job_id, index), None)
            for rule in range(len(self.rules)):
                self._firing.pop((job_id, spec.name, rule), None)

    def held_jobs(self) -> Set[JobId]:
        return {key[0] for key in (*self._open, *self._firing, *self._last_bad)}

    # ------------------------------------------------------------------
    # One evaluation round
    # ------------------------------------------------------------------
    def evaluate_once(self) -> None:
        """Judge every (job, SLO) pair once and update all bookkeeping.

        One pass per job: its state, its expected view and its metric row
        are read once and every spec is judged from them. A Job Store
        outage makes the fleet unenumerable; the round is skipped whole
        (no samples land), which reads as an accounting gap — the honest
        representation of "nobody could tell".
        """
        from repro.errors import DegradedModeError

        now = self._engine.now
        sli = self._sli
        try:
            job_ids = sli.job_ids()
        except DegradedModeError:
            return
        self.evaluations += 1
        batch: List[Tuple[str, str, float]] = []
        for job_id in job_ids:
            try:
                if not sli.running(job_id):
                    # Quarantined/stopped jobs stop accruing samples: the
                    # quarantine itself is already alerted by the syncer.
                    continue
                view = sli._view(job_id)
                values = sli.job_slis(job_id, self._sli_names, view, now)
            except DegradedModeError:
                continue
            for index, value in enumerate(values):
                if value is None:
                    continue  # the SLI has no data yet
                spec = self.specs[index]
                threshold = spec.threshold
                if threshold is None:
                    threshold = view.slo_lag_seconds
                bad = not spec.is_good(value, threshold)
                batch.append((job_id, self._bad_metrics[index], 1.0 if bad else 0.0))
                if bad:
                    self._last_bad[(job_id, index)] = now
                if bad or (job_id, spec.name) in self._open:
                    self._track_breach(job_id, spec, bad=bad, now=now)
        if batch:
            self._store.record_many(now, batch)
        self._check_burn_rates(now)
        self._publish_telemetry(now)

    def _track_breach(
        self, job_id: JobId, spec: SloSpec, bad: bool, now: Seconds
    ) -> None:
        key = (job_id, spec.name)
        open_breach = self._open.get(key)
        if bad and open_breach is None:
            breach = BreachWindow(job_id=job_id, slo=spec.name, start=now)
            self._open[key] = breach
            self.breaches.append(breach)
            if self._telemetry is not None:
                self._telemetry.inc("slo.breaches")
        elif not bad and open_breach is not None:
            open_breach.end = now
            del self._open[key]

    # ------------------------------------------------------------------
    # Burn rates and alerting
    # ------------------------------------------------------------------
    def _series(self, job_id: JobId, spec: SloSpec):
        """The pair's 0/1 series, or ``None`` before its first sample."""
        return self._store.row(job_id).get(f"slo_bad.{spec.name}")

    def burn(self, job_id: JobId, slo: str, window: Seconds) -> float:
        """The (job, SLO) burn rate over a trailing window, now."""
        spec = self.spec(slo)
        return burn_rate(
            self._series(job_id, spec), window, self._engine.now, spec.target
        )

    def budget_burned(self, job_id: JobId, slo: str, now: Optional[Seconds] = None) -> float:
        """Fraction of the error budget consumed over the compliance window.

        1.0 means the budget is gone — the SLO is breached for the
        current horizon; values above 1.0 measure how far past it burned.
        """
        spec = self.spec(slo)
        if now is None:
            now = self._engine.now
        frac = bad_fraction(self._series(job_id, spec), spec.compliance_window, now)
        return frac / spec.budget_fraction

    def spec(self, name: str) -> SloSpec:
        for spec in self.specs:
            if spec.name == name:
                return spec
        raise KeyError(f"unknown SLO {name!r}")

    def _check_burn_rates(self, now: Seconds) -> None:
        """Evaluate every rule for the pairs that burned budget lately.

        A rule fires only while *both* its windows burn, and a 0/1 series
        with no bad sample inside a window has burn rate exactly 0.0 over
        it. So a rule whose short window holds no bad sample of the pair
        is not firing, whatever its long window still holds, and is not
        read; the long window is read only when the short one burns. A
        pair is visited one last time on the round its bad sample leaves
        the longest short window — every rule is then set not-firing —
        and is forgotten until it goes bad again.
        """
        quiet_before = now - self._burn_horizon
        for pair in sorted(self._last_bad):
            entity, spec_index = pair
            spec = self.specs[spec_index]
            last_bad = self._last_bad[pair]
            series = self._series(entity, spec)
            for index, rule in enumerate(self.rules):
                key = (entity, spec.name, index)
                threshold = rule.burn_threshold
                firing = (
                    last_bad >= now - rule.short_window
                    and burn_rate(series, rule.short_window, now, spec.target)
                    >= threshold
                )
                if firing:
                    long_burn = burn_rate(series, rule.long_window, now, spec.target)
                    firing = long_burn >= threshold
                    if firing and not self._firing.get(key):
                        self._alert(entity, spec, rule, long_burn, now)
                self._firing[key] = firing
            if last_bad < quiet_before:
                del self._last_bad[pair]

    def _known_entities(self) -> List[str]:
        entities = set()
        for spec in self.specs:
            entities.update(self._store.entities_with(f"slo_bad.{spec.name}"))
        return sorted(entities)

    def _alert(
        self, job_id: JobId, spec: SloSpec, rule: BurnRateRule,
        long_burn: float, now: Seconds,
    ) -> None:
        hours = rule.long_window / 3600.0
        what = (
            f"{job_id}: {spec.name} SLO burning {long_burn:.1f}x budget "
            f"over {hours:g}h (threshold {rule.burn_threshold:g}x)"
        )
        self.alerts.append(
            self._alert_cls(now, rule.severity, what, spec.runbook)
        )
        if self._telemetry is not None:
            self._telemetry.inc(f"slo.alerts.{rule.severity}")

    # ------------------------------------------------------------------
    # Telemetry (deterministic: derived purely from simulated metrics)
    # ------------------------------------------------------------------
    def _publish_telemetry(self, now: Seconds) -> None:
        telemetry = self._telemetry
        if telemetry is None or not telemetry.enabled:
            return
        telemetry.inc("slo.evals")
        counts = self._fleet_counts_or_none(now)
        if counts is not None:
            telemetry.set_gauge("sli.fleet.jobs_total", float(counts.jobs_total))
            telemetry.set_gauge("sli.fleet.jobs_lagging", float(counts.jobs_lagging))
            telemetry.set_gauge(
                "sli.fleet.jobs_quarantined", float(counts.jobs_quarantined)
            )
            telemetry.set_gauge("sli.fleet.jobs_with_oom", float(counts.jobs_with_oom))
        for spec in self.specs:
            worst = 0.0
            for entity in self._store.entities_with(f"slo_bad.{spec.name}"):
                worst = max(worst, self.budget_burned(entity, spec.name, now))
            telemetry.set_gauge(f"slo.{spec.name}.budget_burned_max", round(worst, 9))
        telemetry.set_gauge("slo.breach_windows", float(len(self.breaches)))

    def _fleet_counts_or_none(self, now: Seconds):
        from repro.errors import DegradedModeError

        try:
            return self._sli.fleet_counts(now)
        except DegradedModeError:
            return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def report(self, now: Optional[Seconds] = None) -> Dict[str, object]:
        """The full SLO state as a plain dict (deterministic ordering)."""
        if now is None:
            now = self._engine.now
        rows = []
        for job_id in self._known_entities():
            for spec in self.specs:
                series = self._store._series.get(
                    (job_id, f"slo_bad.{spec.name}")
                )
                if series is None:
                    continue
                burned = self.budget_burned(job_id, spec.name, now)
                rows.append({
                    "job": job_id,
                    "slo": spec.name,
                    "sli": spec.sli,
                    "target": spec.target,
                    "window": spec.compliance_window,
                    "bad_fraction": round(
                        bad_fraction(series, spec.compliance_window, now), 9
                    ),
                    "budget_burned": round(burned, 9),
                    "burn_1h": round(
                        burn_rate(series, 3600.0, now, spec.target), 9
                    ),
                    "burn_6h": round(
                        burn_rate(series, 21600.0, now, spec.target), 9
                    ),
                    "status": (
                        "breached" if burned >= 1.0
                        else "burning" if any(
                            self._firing.get((job_id, spec.name, index))
                            for index in range(len(self.rules))
                        )
                        else "ok"
                    ),
                })
        return {
            "time": round(now, 3),
            "evaluations": self.evaluations,
            "slos": rows,
            "breach_windows": [
                breach.to_dict(now) for breach in self.breaches
            ],
            "alerts": [
                {
                    "time": round(alert.time, 3),
                    "severity": alert.severity,
                    "what": alert.what,
                    "runbook": alert.runbook,
                }
                for alert in self.alerts
            ],
        }

    def to_json(self, now: Optional[Seconds] = None) -> str:
        """The report as canonical JSON (byte-identical per seed)."""
        return json.dumps(self.report(now), sort_keys=True, indent=2) + "\n"

    def render(self, now: Optional[Seconds] = None) -> str:
        """The ``repro slo`` fleet compliance table."""
        from repro.analysis.report import Table

        report = self.report(now)
        table = Table(
            ["job", "slo", "target", "budget burned", "burn 1h", "status"]
        )
        for row in report["slos"]:
            table.add_row(
                row["job"], row["slo"], f"{row['target']:.3f}",
                f"{row['budget_burned']:.1%}", f"{row['burn_1h']:.1f}x",
                row["status"],
            )
        lines = [table.render()]
        open_breaches = [b for b in self.breaches if b.open]
        lines.append(
            f"breach windows: {len(self.breaches)} "
            f"({len(open_breaches)} open)  alerts: {len(self.alerts)}"
        )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"SloTracker(specs={len(self.specs)}, evals={self.evaluations}, "
            f"breaches={len(self.breaches)}, alerts={len(self.alerts)})"
        )
