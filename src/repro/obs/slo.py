"""Declarative SLOs: error budgets and multi-window burn-rate alerts.

An :class:`SloSpec` turns an SLI (:mod:`repro.obs.sli`) into an
objective: "lag under the job's declared bound for 99% of minutes over
the trailing 6 hours". The :class:`SloTracker` evaluates every spec for
every job on a fixed cadence and keeps the bookkeeping the Google SRE
playbook asks for:

* **good/bad verdicts** — each evaluation appends one row to the judged
  job's private judgement ledger: the round's time and one byte per spec
  (good, bad, or no sample). Every burn rate and budget read below is two
  bisects on the row times and two ``bytes.count`` calls on the spec's
  strided column, so a bad fraction is a quotient of two integers. The
  ledgers are the tracker's own, so a chaos ``metric-gap`` fault against
  the platform store cannot erase the breach it causes. Reads create
  nothing: a (job, SLO) pair with no verdict yet burns 0.0;
* **burn rate** — bad fraction over a window divided by the budget
  fraction ``1 - target``. Burn 1.0 spends the budget exactly at the
  compliance horizon; 14.4 spends a 30-day budget in 2 days;
* **multi-window multi-burn alerts** — a rule fires only when both its
  long and short windows burn above the threshold (the long window for
  significance, the short one to stop alerting once the fire is out);
  a fired alert is an :class:`SloAlert` record in a
  :class:`~repro.obs.bounded.BoundedList`, read through the same
  ``time`` / ``severity`` / ``what`` / ``runbook`` surface as a
  :class:`repro.ops.health.Alert` (the platform's one alert pipeline);
* **breach windows** — contiguous bad intervals per (job, SLO), exported
  with the error budget burned so a chaos drill can say "this fault cost
  4.1 minutes of breach and 12% of the lag budget".

Everything is driven by the simulation clock and the deterministic
metric plane: same seed, byte-identical reports.
"""

from __future__ import annotations

import json
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.metrics.row import COMPACT_MIN
from repro.obs.bounded import BoundedList
from repro.obs.sli import SLI_NAMES, SliEvaluator
from repro.types import JobId, Seconds

#: Evaluation cadence: one judgement per simulated minute, the same
#: cadence the stats collector lands the underlying metrics at.
EVAL_INTERVAL: Seconds = 60.0

#: Retained breach windows / alerts (same cap as health reports).
RECORD_RETENTION = 8_640

#: The trailing windows of ``report()``'s ``burn_1h`` / ``burn_6h`` columns.
REPORT_BURN_1H: Seconds = 3600.0
REPORT_BURN_6H: Seconds = 21600.0

#: Ledger codes: one byte per (round, spec).
GOOD, BAD, NO_SAMPLE = 0, 1, 2


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


class SloAlert:
    """One fired burn-rate alert, kept as what fired: the round's time, the
    job, the spec, the rule and the long window's burn.

    ``severity``, ``what`` and ``runbook`` are the reading surface of a
    :class:`repro.ops.health.Alert`; they are built when read, so a
    retained alert holds no text of its own.
    """

    __slots__ = ("time", "job_id", "spec", "rule", "long_burn")

    def __init__(
        self, time: Seconds, job_id: JobId, spec: SloSpec,
        rule: BurnRateRule, long_burn: float,
    ) -> None:
        self.time = time
        self.job_id = job_id
        self.spec = spec
        self.rule = rule
        self.long_burn = long_burn

    @property
    def severity(self) -> str:
        return self.rule.severity

    @property
    def what(self) -> str:
        rule = self.rule
        return (
            f"{self.job_id}: {self.spec.name} SLO burning "
            f"{self.long_burn:.1f}x budget over {rule.long_window / 3600.0:g}h "
            f"(threshold {rule.burn_threshold:g}x)"
        )

    @property
    def runbook(self) -> str:
        return self.spec.runbook

    def __repr__(self) -> str:
        return f"SloAlert(time={self.time}, severity={self.severity!r}, what={self.what!r})"


class BreachWindow:
    """One contiguous bad interval for one (job, SLO).

    Slotted by hand (``dataclass(slots=True)`` needs Python 3.10, and a
    slot cannot take a class-level default): a tracker retains thousands.
    """

    __slots__ = ("job_id", "slo", "start", "end")

    def __init__(self, job_id: JobId, slo: str, start: Seconds) -> None:
        self.job_id = job_id
        self.slo = slo
        self.start = start
        #: Set when the breach closes; None while it is open.
        self.end: Optional[Seconds] = None

    def __repr__(self) -> str:
        return (
            f"BreachWindow(job_id={self.job_id!r}, slo={self.slo!r}, "
            f"start={self.start!r}, end={self.end!r})"
        )

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


class _Ledger:
    """One job's verdicts: a row per round in which the job was judged.

    ``times[r]`` is row ``r``'s round time and ``codes[r * width + s]`` is
    spec ``s``'s verdict in it (``GOOD``, ``BAD`` or ``NO_SAMPLE``), so a
    row costs 8 + ``width`` bytes. Rows before ``head`` are past the
    retention horizon; they are compacted away like a
    :class:`~repro.metrics.row.Column`'s dead prefix.
    """

    __slots__ = ("times", "codes", "head", "judged")

    def __init__(self) -> None:
        self.times = array("d")
        self.codes = bytearray()
        #: Index of the first live (retained) row.
        self.head = 0
        #: Bit ``s`` is set once spec ``s`` had a verdict: the pairs
        #: ``report()`` lists.
        self.judged = 0

    def trim(self, horizon: Seconds, width: int) -> None:
        """Retire the rows older than ``horizon`` (there is at least one)."""
        times = self.times
        head = bisect_left(times, horizon, self.head)
        if head >= COMPACT_MIN and head * 2 >= len(times):
            del times[:head]
            del self.codes[:head * width]
            head = 0
        self.head = head

    def bad_fraction(
        self, index: int, width: int, window: Seconds, now: Seconds
    ) -> float:
        """Bad verdicts over judged ones of spec ``index`` in the trailing
        window ending at ``now`` (0.0 with none judged): two bisects and
        two C counts. Exact: the quotient of two counts is what ``fsum``
        of the 0/1 values over their number gives."""
        times, head = self.times, self.head
        lo = bisect_left(times, now - window, head)
        hi = bisect_right(times, now, head)
        column = self.codes[lo * width + index:hi * width:width]
        judged = len(column) - column.count(NO_SAMPLE)
        return column.count(BAD) / judged if judged else 0.0


class SloTracker:
    """Evaluates every SLO for every job and accounts the error budgets."""

    def __init__(
        self,
        engine,
        sli: SliEvaluator,
        specs: Optional[Tuple[SloSpec, ...]] = None,
        telemetry=None,
    ) -> None:
        self._engine = engine
        self._sli = sli
        self.specs: Tuple[SloSpec, ...] = (
            specs if specs is not None else default_slo_specs()
        )
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate SLO names: {names}")
        self.rules = DEFAULT_BURN_RULES
        self._telemetry = telemetry
        #: job -> its verdicts. Private on purpose: a chaos ``metric-gap``
        #: fault must not silently erase the very breach it causes, and
        #: budget accounting must survive any platform-store outage. A
        #: deleted job's ledger is kept: it is the compliance record.
        self._ledgers: Dict[JobId, _Ledger] = {}
        self._width = len(self.specs)
        self._index = {name: index for index, name in enumerate(names)}
        #: Rows are kept for 1.25 × the longest window any read takes, so
        #: every window read sees every verdict in it.
        self._retention: Seconds = 1.25 * max(
            *(spec.compliance_window for spec in self.specs),
            *(rule.long_window for rule in self.rules),
            REPORT_BURN_1H, REPORT_BURN_6H,
        )
        #: Each spec's judgement, resolved once: ``(index, bit, name,
        #: spec, SLI row reader, threshold or None for the job's own lag
        #: objective, whether good means ``value <= threshold``)`` —
        #: ``SloSpec.is_good`` with the comparator looked up up front.
        self._judges = tuple(
            (index, 1 << index, spec.name, spec, read, spec.threshold,
             spec.comparator == "<=")
            for index, (spec, read) in enumerate(
                zip(self.specs, sli.readers([spec.sli for spec in self.specs]))
            )
        )
        #: Ledger window reads (introspection).
        self.window_reads = 0
        self.alerts: List[SloAlert] = BoundedList(maxlen=RECORD_RETENTION)
        self.breaches: List[BreachWindow] = BoundedList(maxlen=RECORD_RETENTION)
        #: (job, slo) -> open breach (also present in ``breaches``).
        self._open: Dict[Tuple[JobId, str], BreachWindow] = {}
        #: (job, slo, rule index) currently above threshold (edge trigger);
        #: a rule leaves the set the round it stops firing.
        self._firing: Set[Tuple[JobId, str, int]] = set()
        #: (job, index into ``specs``) -> time of the newest bad verdict,
        #: kept while that verdict is inside some rule's short window.
        #: These are the only pairs a burn-rate rule can fire for.
        self._last_bad: Dict[Tuple[JobId, int], Seconds] = {}
        self._burn_horizon: Seconds = max(
            (rule.short_window for rule in self.rules), default=0.0
        )
        self.evaluations = 0
        self._timer = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._timer is None:
            self._timer = self._engine.every(
                EVAL_INTERVAL, self.evaluate_once, name="slo-tracker"
            )

    def forget_job(self, job_id: JobId) -> None:
        """End a deleted job's open breaches and drop its alert edges: a
        ledger nobody writes any more must not fire as its good verdicts
        age out. Verdicts, past breaches and alerts are the record; kept."""
        for index, spec in enumerate(self.specs):
            breach = self._open.pop((job_id, spec.name), None)
            if breach is not None:
                breach.end = self._engine.now
            self._last_bad.pop((job_id, index), None)
            for rule in range(len(self.rules)):
                self._firing.discard((job_id, spec.name, rule))

    def held_jobs(self) -> Set[JobId]:
        return {key[0] for key in (*self._open, *self._firing, *self._last_bad)}

    # ------------------------------------------------------------------
    # One evaluation round
    # ------------------------------------------------------------------
    def evaluate_once(self) -> None:
        """Judge every (job, SLO) pair once and update all bookkeeping.

        One pass per job: its state, its expected view and its metric row
        are read once, every spec is judged from them, and the verdicts
        land as one ledger row. A Job Store outage makes the fleet
        unenumerable; the round is skipped whole (no row lands), which
        reads as an accounting gap — the honest representation of "nobody
        could tell".
        """
        from repro.errors import DegradedModeError

        now = self._engine.now
        sli = self._sli
        try:
            job_ids = sli.job_ids()
        except DegradedModeError:
            return
        self.evaluations += 1
        running, job_view, metric_row = sli.running, sli._view, sli.row
        ledgers, judges, last_bad = self._ledgers, self._judges, self._last_bad
        open_breaches, track = self._open, self._track_breach
        horizon = now - self._retention
        judged = 0
        for job_id in job_ids:
            try:
                if not running(job_id):
                    # Quarantined/stopped jobs stop accruing verdicts: the
                    # quarantine itself is already alerted by the syncer.
                    continue
                view = job_view(job_id)
            except DegradedModeError:
                continue
            row = metric_row(job_id)
            judged += 1
            ledger = ledgers.get(job_id)
            if ledger is None:
                ledger = ledgers[job_id] = _Ledger()
            times, codes = ledger.times, ledger.codes
            if times and now < times[-1]:
                raise ValueError(f"rounds must be time-ordered: {now} < {times[-1]}")
            times.append(now)
            seen = 0
            for index, bit, name, spec, read, threshold, at_most in judges:
                value = read(row, view, now)
                if value is None:
                    codes.append(NO_SAMPLE)  # the SLI has no data yet
                    continue
                seen |= bit
                limit = view.slo_lag_seconds if threshold is None else threshold
                if value <= limit if at_most else value >= limit:
                    codes.append(GOOD)
                    if (job_id, name) in open_breaches:
                        track(job_id, spec, bad=False, now=now)
                else:
                    codes.append(BAD)
                    last_bad[(job_id, index)] = now
                    track(job_id, spec, bad=True, now=now)
            ledger.judged |= seen
            if times[ledger.head] < horizon:
                ledger.trim(horizon, self._width)
        sli.evaluations += judged * self._width
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
    def _bad_fraction(
        self, job_id: JobId, index: int, window: Seconds, now: Seconds
    ) -> float:
        """Bad verdicts over judged ones for (job, ``specs[index]``) in the
        trailing window; 0.0 with none."""
        ledger = self._ledgers.get(job_id)
        if ledger is None:
            return 0.0
        self.window_reads += 1
        return ledger.bad_fraction(index, self._width, window, now)

    def _judged_pairs(self) -> List[Tuple[JobId, int]]:
        """Every (job, spec index) with a verdict, by job then spec order."""
        return [
            (job_id, index)
            for job_id, ledger in sorted(self._ledgers.items())
            for index in range(self._width)
            if ledger.judged >> index & 1
        ]

    def _burn(self, job_id: JobId, index: int, window: Seconds, now: Seconds) -> float:
        return (
            self._bad_fraction(job_id, index, window, now)
            / self.specs[index].budget_fraction
        )

    def burn(self, job_id: JobId, slo: str, window: Seconds) -> float:
        """The (job, SLO) burn rate over a trailing window, now."""
        return self._burn(job_id, self._spec_index(slo), window, self._engine.now)

    def budget_burned(self, job_id: JobId, slo: str) -> float:
        """Fraction of the error budget consumed over the compliance window.

        1.0 means the budget is gone — the SLO is breached for the
        current horizon; values above 1.0 measure how far past it burned.
        """
        index = self._spec_index(slo)
        return self._burn(
            job_id, index, self.specs[index].compliance_window, self._engine.now
        )

    def spec(self, name: str) -> SloSpec:
        return self.specs[self._spec_index(name)]

    def _spec_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise KeyError(f"unknown SLO {name!r}") from None

    def _check_burn_rates(self, now: Seconds) -> None:
        """Evaluate every rule for the pairs that burned budget lately.

        A rule fires only while *both* its windows burn, and a window
        with no bad verdict of the pair has burn rate exactly 0.0. So a
        rule whose short window holds no bad verdict of the pair is not
        firing, whatever its long window still holds, and is not read;
        the long window is read only when the short one burns. A pair is
        visited one last time on the round its bad verdict leaves the
        longest short window — every rule is then set not-firing — and
        is forgotten until it goes bad again.
        """
        quiet_before = now - self._burn_horizon
        width = self._width
        for pair in sorted(self._last_bad):
            entity, spec_index = pair
            spec = self.specs[spec_index]
            budget = spec.budget_fraction
            bad_fraction = self._ledgers[entity].bad_fraction
            last_bad = self._last_bad[pair]
            for index, rule in enumerate(self.rules):
                key = (entity, spec.name, index)
                threshold = rule.burn_threshold
                firing = False
                if last_bad >= now - rule.short_window:
                    self.window_reads += 1
                    short = bad_fraction(spec_index, width, rule.short_window, now)
                    firing = short / budget >= threshold
                if firing:
                    self.window_reads += 1
                    long_burn = bad_fraction(spec_index, width, rule.long_window, now) / budget
                    firing = long_burn >= threshold
                    if firing and key not in self._firing:
                        self._alert(entity, spec, rule, long_burn, now)
                        self._firing.add(key)
                if not firing:
                    self._firing.discard(key)
            if last_bad < quiet_before:
                del self._last_bad[pair]

    def _alert(
        self, job_id: JobId, spec: SloSpec, rule: BurnRateRule,
        long_burn: float, now: Seconds,
    ) -> None:
        self.alerts.append(SloAlert(now, job_id, spec, rule, long_burn))
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
        worst = [0.0] * self._width
        for job_id, index in self._judged_pairs():
            burned = self._burn(
                job_id, index, self.specs[index].compliance_window, now
            )
            worst[index] = max(worst[index], burned)
        for spec, burned in zip(self.specs, worst):
            telemetry.set_gauge(f"slo.{spec.name}.budget_burned_max", round(burned, 9))
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
        for job_id, index in self._judged_pairs():
            spec = self.specs[index]
            fraction = self._bad_fraction(job_id, index, spec.compliance_window, now)
            burned = fraction / spec.budget_fraction
            rows.append({
                "job": job_id,
                "slo": spec.name,
                "sli": spec.sli,
                "target": spec.target,
                "window": spec.compliance_window,
                "bad_fraction": round(fraction, 9),
                "budget_burned": round(burned, 9),
                "burn_1h": round(self._burn(job_id, index, REPORT_BURN_1H, now), 9),
                "burn_6h": round(self._burn(job_id, index, REPORT_BURN_6H, now), 9),
                "status": (
                    "breached" if burned >= 1.0
                    else "burning" if any(
                        (job_id, spec.name, rule) in self._firing
                        for rule in range(len(self.rules))
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
