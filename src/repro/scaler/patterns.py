"""The Pattern Analyzer — the *preactive* part of the Auto Scaler.

"Turbine introduces the Pattern Analyzer whose goal is to infer patterns
based on data seen and to apply this knowledge for pruning out potentially
destabilizing scaling decisions." (paper section V-C). Two data sets are
maintained:

1. **Resource adjustment data** — the running estimate of each job's max
   stable per-thread throughput ``P``, corrected in both directions:
   an attempted downscale that computes *more* tasks than currently run
   means ``P`` was too low (set it to the observed per-task throughput and
   skip the action); an SLO violation shortly after a downscale we
   performed means ``P`` was too high (pull it back toward the observed
   value).
2. **Historical workload patterns** — 14 days of per-minute input rates.
   A downscale is vetoed unless the reduced capacity could have sustained
   the traffic seen at the same time of day over the lookback horizon; and
   when the current traffic is itself an outlier versus history, the
   history is considered unusable and the analyzer stays conservative.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Optional

from repro.metrics.series import TimeSeries
from repro.metrics.store import MetricStore
from repro.scaler.snapshot import JobSnapshot
from repro.types import JobId, Seconds

#: Lookback horizon for historical workload patterns.
HISTORY_DAYS = 14

#: "it verifies that this reduction will not cause another round of updates
#: in the next x hours" — the forward window validated against history.
DEFAULT_VALIDATE_HOURS = 4.0

#: Relative deviation of the last-30-minutes average from the same window
#: in prior days above which history is declared unusable. The paper notes
#: normal day-over-day variation is within ~1 % on aggregate; individual
#: jobs are noisier, so the default is looser.
OUTLIER_DEVIATION = 0.5

#: How long after a downscale an SLO violation is attributed to it.
PROBE_WINDOW: Seconds = 1800.0


@dataclass(init=False)
class _JobPatternState:
    """Per-job mutable analyzer state: one per job, so slotted by hand
    (``dataclass(slots=True)`` needs Python 3.10, and a slot cannot have a
    class-level default — the constructor sets them)."""

    __slots__ = (
        "rate_per_thread", "last_downscale_time", "last_downscale_from",
        "low_throughput_streak",
    )

    rate_per_thread: float
    last_downscale_time: Optional[Seconds]
    last_downscale_from: int
    #: Consecutive saturated-lag observations below the estimate.
    low_throughput_streak: int

    def __init__(self, rate_per_thread: float) -> None:
        self.rate_per_thread = rate_per_thread
        self.last_downscale_time = None
        self.last_downscale_from = 0
        self.low_throughput_streak = 0


@dataclass
class PatternVerdict:
    """The analyzer's answer to "may I downscale to n' tasks?"."""

    allowed: bool
    reason: str = ""


class PatternAnalyzer:
    """Maintains P estimates and prunes destabilizing scaling decisions."""

    def __init__(
        self,
        metrics: MetricStore,
        validate_hours: float = DEFAULT_VALIDATE_HOURS,
        history_days: int = HISTORY_DAYS,
        outlier_deviation: float = OUTLIER_DEVIATION,
        history_enabled: bool = True,
    ) -> None:
        self._metrics = metrics
        self._validate_hours = validate_hours
        self._history_days = history_days
        self._outlier_deviation = outlier_deviation
        #: Ablation switch: with history disabled, downscales are checked
        #: against the estimate only (the pre-preactive behaviour).
        self.history_enabled = history_enabled
        self._jobs: Dict[JobId, _JobPatternState] = {}

    def forget_job(self, job_id: JobId) -> None:
        """A deleted job's learned P is not its successor's bootstrap."""
        self._jobs.pop(job_id, None)

    def held_jobs(self) -> Iterable[JobId]:
        return self._jobs.keys()

    # ------------------------------------------------------------------
    # P estimation
    # ------------------------------------------------------------------
    def rate_per_thread(self, job_id: JobId, bootstrap: float) -> Optional[float]:
        """The current estimate of P, bootstrapped on first sight.

        A bootstrap that is not a positive number is never adopted: with no
        estimate yet, the answer is ``None`` and nothing is kept (every
        correction keeps a positive P positive, so only first sight can
        take a bad one).
        """
        state = self._jobs.get(job_id)
        if state is None:
            if not bootstrap > 0:
                return None
            state = _JobPatternState(rate_per_thread=bootstrap)
            self._jobs[job_id] = state
        return state.rate_per_thread

    def observe_underestimate(self, snapshot: JobSnapshot) -> None:
        """The planned downscale computed n' > n: P was too small.

        "Turbine adjusts P to the average task throughput and skips
        performing an action in this round."
        """
        state = self._jobs[snapshot.job_id]
        observed = snapshot.per_task_rate / max(1, snapshot.threads)
        if observed > state.rate_per_thread:
            state.rate_per_thread = observed

    def observe_saturated_throughput(self, snapshot: JobSnapshot) -> bool:
        """Refresh P from a saturated job's observed throughput.

        A lagging job processes flat-out, so its per-thread throughput is
        a lower bound on the true P ("Initially, P can be bootstrapped
        during the staging period ... and adjusted at runtime",
        section V-B) — upward corrections are always safe.

        The downward direction needs more evidence: an over-estimated P
        makes a genuine capacity shortage look like an untriaged problem
        (the estimate says "enough resources" while the job drowns). When
        every expected task is running, the lag is well past the SLO, and
        the observed rate still sits far below the estimate, the estimate
        — not the job — is wrong, and P is pulled toward the observation.
        Returns True when P changed.
        """
        state = self._jobs.get(snapshot.job_id)
        if state is None or snapshot.running_tasks <= 0:
            return False
        fully_running = snapshot.running_tasks >= snapshot.task_count
        if not fully_running:
            # Mid-resize or degraded readings are noise in both directions
            # (a stale running-task count inflates the per-task rate).
            return False
        observed = snapshot.per_task_rate / max(1, snapshot.threads)
        if observed > state.rate_per_thread * 1.05:
            state.low_throughput_streak = 0
            state.rate_per_thread = observed
            return True
        persistent_lag = snapshot.time_lagged > 2.0 * snapshot.slo_lag_seconds
        if persistent_lag and 0 < observed < state.rate_per_thread * 0.8:
            # One low reading can be a transient (restore, contention,
            # restart); require a streak before doubting the estimate.
            state.low_throughput_streak += 1
            if state.low_throughput_streak >= 3:
                state.low_throughput_streak = 0
                state.rate_per_thread = (
                    state.rate_per_thread + observed
                ) / 2.0
                return True
            return False
        state.low_throughput_streak = 0
        return False

    def record_downscale(self, snapshot: JobSnapshot, new_count: int) -> None:
        """Remember that we downscaled, to attribute later SLO violations."""
        state = self._jobs[snapshot.job_id]
        state.last_downscale_time = snapshot.time
        state.last_downscale_from = snapshot.task_count

    def observe_slo_violation(self, snapshot: JobSnapshot) -> bool:
        """An SLO violation occurred; was it caused by our recent downscale?

        If so, P "needs to be adjusted to a value between X/n and P" — the
        midpoint is used — and the caller should scale back up. Returns
        True when the violation was attributed to a downscale.
        """
        state = self._jobs.get(snapshot.job_id)
        if state is None or state.last_downscale_time is None:
            return False
        if snapshot.time - state.last_downscale_time > PROBE_WINDOW:
            return False
        n = max(1, snapshot.task_count)
        floor = snapshot.input_rate_mb / (n * max(1, snapshot.threads))
        if floor < state.rate_per_thread:
            state.rate_per_thread = (floor + state.rate_per_thread) / 2.0
        state.last_downscale_time = None
        return True

    # ------------------------------------------------------------------
    # Historical workload validation
    # ------------------------------------------------------------------
    def validate_downscale(
        self, snapshot: JobSnapshot, new_task_count: int
    ) -> PatternVerdict:
        """May the job drop to ``new_task_count`` tasks?

        Checks the same clock window over the last ``history_days`` days:
        the reduced capacity must have been able to sustain every input
        rate seen in the next ``validate_hours`` hours of those days.
        """
        state = self._jobs[snapshot.job_id]
        capacity = (
            new_task_count * max(1, snapshot.threads) * state.rate_per_thread
        )
        if not self.history_enabled:
            if snapshot.input_rate_mb > capacity:
                return PatternVerdict(
                    allowed=False, reason="insufficient capacity for current rate"
                )
            return PatternVerdict(allowed=True)
        series = self._metrics.row(snapshot.job_id).get("input_rate_mb")
        if series is None:
            series = TimeSeries()  # never written: reads as "no history"

        if self._is_outlier(snapshot, series):
            return PatternVerdict(
                allowed=False,
                reason="current traffic deviates from history; "
                       "pattern-based decisions disabled",
            )

        now = snapshot.time
        window = self._validate_hours * 3600.0
        days_checked = 0
        for day in range(1, self._history_days + 1):
            start = now - day * 86400.0
            if start < 0:
                break
            # One historical read: bisect the window, max over the slice.
            peak = series.max_between(start, start + window)
            if peak is None:
                continue
            days_checked += 1
            if peak > capacity:
                return PatternVerdict(
                    allowed=False,
                    reason=(
                        f"{day} day(s) ago traffic peaked at {peak:.2f} MB/s "
                        f"> reduced capacity {capacity:.2f} MB/s"
                    ),
                )
        if days_checked == 0:
            # No history at all (young job): fall back to the estimate
            # alone, but require capacity above the current rate.
            if snapshot.input_rate_mb > capacity:
                return PatternVerdict(
                    allowed=False, reason="no history and insufficient capacity"
                )
        return PatternVerdict(allowed=True)

    def _is_outlier(self, snapshot: JobSnapshot, series) -> bool:
        """"If the average input rate in the last 30 minutes is significantly
        different from the average of the same metric in the same time
        periods during the last 14 days, historical pattern-based decision
        making is disabled."
        """
        now = snapshot.time
        recent_sum, recent_count, _ = series.aggregate_between(now - 1800.0, now)
        if not recent_count:
            return False
        recent_avg = recent_sum / recent_count
        history_sum = 0.0
        history_count = 0
        for day in range(1, self._history_days + 1):
            start = now - day * 86400.0 - 1800.0
            if start < -1800.0:
                break
            # A 30-minute slice of the 14-day series: 30 samples at the
            # collector's one-minute cadence, summed in C.
            day_sum, day_count, _ = series.aggregate_between(start, start + 1800.0)
            history_sum += day_sum
            history_count += day_count
        if not history_count:
            return False
        history_avg = history_sum / history_count
        if history_avg <= 1e-9:
            return recent_avg > 1e-9
        deviation = abs(recent_avg - history_avg) / history_avg
        return deviation > self._outlier_deviation
