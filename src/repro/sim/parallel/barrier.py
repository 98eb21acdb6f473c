"""The control plane that runs at round barriers.

Between barriers the partitions integrate their task slices in complete
isolation; *at* each barrier the coordinator merges their deltas and
runs the control-plane services exactly once, on partition 0's side of
the fence (inline in the coordinator process):

* **auto-scaler** — per-job task-count scaling on merged lag seconds,
  with hysteresis and a cooldown on the way down (paper section V);
* **load balancer** — a vertical thread multiplier once a job is pinned
  at its task-count limit (paper: tasks scale threads when the count
  cannot grow);
* **state syncer** — reconciles the commands it issued with what the
  partitions applied, and re-credits scale-down orphan lag to the job's
  task 0 one round later;
* **SLO tracker** — per-job lag-objective judgements, error budgets, and
  edge-triggered breach/recovery events.

Every decision reads only the merged view (integer sums + entity-keyed
crash records) and spec-derived scalars, so the command stream — and
with it every export — is independent of the partition count.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.metrics import MetricSlice, MetricStore
from repro.obs.telemetry import Telemetry
from repro.ops.timeline import TimelineEvent
from repro.sim.parallel.fleet import FleetSpec
from repro.sim.parallel.merge import MergedRound

#: SLO availability target for the lag objective (fraction of barrier
#: evaluations allowed to be in breach = 1 - target).
SLO_TARGET = 0.99

#: Scale-down hysteresis: this many consecutive low-lag barriers.
DOWNSCALE_STREAK = 3

#: Lag (as a fraction of the objective) below which a barrier counts
#: toward the downscale streak.
DOWNSCALE_FRACTION = 0.05

#: Vertical multiplier ceiling for the balancer.
MAX_THREADS_MULT = 4.0

#: Wire-command application order (partitions apply sequentially).
_COMMAND_RANK = {"threads": 0, "scale": 1, "credit": 2}


@dataclass(frozen=True)
class ScaleAction:
    """One control-plane decision, for fingerprints and reports."""

    time: float
    job_id: str
    kind: str  # scale-up | scale-down | threads-up
    old: float
    new: float


class _JobControl:
    """Coordinator-side state for one job."""

    __slots__ = (
        "count", "initial_count", "threads_mult", "low_streak",
        "last_scale", "slo_evals", "slo_bad", "breached", "budget_spent",
        "crashes",
    )

    def __init__(self, count: int) -> None:
        self.count = count
        self.initial_count = count
        self.threads_mult = 1.0
        self.low_streak = 0
        self.last_scale = float("-inf")
        self.slo_evals = 0
        self.slo_bad = 0
        self.breached = False
        self.budget_spent = False
        self.crashes = 0


class ControlPlane:
    """Merged-view control running once per barrier on the coordinator."""

    def __init__(self, spec: FleetSpec) -> None:
        self.spec = spec
        self.store = MetricStore()
        self.telemetry = Telemetry(enabled=True)
        self.timeline: List[TimelineEvent] = []
        self.actions: List[ScaleAction] = []
        self._jobs = {job.job_id: job for job in spec.jobs}
        self._control: Dict[str, _JobControl] = {
            job.job_id: _JobControl(job.task_count) for job in spec.jobs
        }
        self._job_order = sorted(self._jobs)
        self._rounds = 0
        self._last_commands: List[Tuple] = []
        self._stats_digest = hashlib.md5()
        self._final_totals: Dict[str, Tuple[int, int]] = {}
        self.crash_total = 0

    # ------------------------------------------------------------------
    def on_round(self, barrier: float, merged: MergedRound) -> List[Tuple]:
        """Consume one merged round; return next round's wire commands."""
        self._rounds += 1
        self.telemetry.inc("parallel.rounds")
        self._land_stats(merged)
        self._syncer(barrier, merged)
        self._record_crashes(barrier, merged)
        commands: List[Tuple] = []
        latest = merged.latest(barrier)
        self._final_totals = latest
        total_lag_u = 0
        total_tasks = 0
        for job_id in self._job_order:
            lag_u, _proc_u = latest.get(job_id, (0, 0))
            total_lag_u += lag_u
            control = self._control[job_id]
            total_tasks += control.count
            lag_s = self._lag_seconds(job_id, barrier, lag_u)
            self._track_slo(barrier, job_id, lag_s)
            commands.extend(self._scale(barrier, job_id, lag_s))
        for job_id in sorted(merged.orphans):
            lag_u = merged.orphans[job_id]
            commands.append(("credit", job_id, lag_u))
            self.telemetry.inc("parallel.commands.credit")
            self._event(
                barrier, "state-syncer", "lag-credit",
                f"job={job_id} lag_mb={lag_u / 1e6:.3f}",
            )
        self.telemetry.set_gauge("fleet.lag_mb", total_lag_u / 1e6)
        self.telemetry.set_gauge("fleet.tasks", float(total_tasks))
        commands.sort(key=lambda c: (_COMMAND_RANK[c[0]], c[1]))
        self._last_commands = commands
        return commands

    # ------------------------------------------------------------------
    def _lag_seconds(self, job_id: str, t: float, lag_u: int) -> float:
        rate = self._jobs[job_id].rate_at(t)
        return (lag_u / 1e6) / max(rate, 1e-9)

    def _land_stats(self, merged: MergedRound) -> None:
        """Land merged samples into the store in canonical order."""
        rows = merged.rows()
        piece = MetricSlice()
        for row in rows:
            self._stats_digest.update(
                json.dumps(list(row), sort_keys=True).encode("utf-8")
            )
            t, job, lag_u, proc_u = row
            piece.add(t, job, "lag_mb", lag_u / 1e6)
            piece.add(t, job, "processed_mb", proc_u / 1e6)
        self.store.load_slice(piece)

    def _syncer(self, barrier: float, merged: MergedRound) -> None:
        applied = len(self._last_commands)
        if applied:
            self.telemetry.inc("parallel.syncer.applied", applied)
            self._event(
                barrier, "state-syncer", "sync-round", f"applied={applied}"
            )

    def _record_crashes(self, barrier: float, merged: MergedRound) -> None:
        if not merged.crashes:
            return
        per_job: Dict[str, int] = {}
        for _t, job_id, _tindex in merged.crashes:
            per_job[job_id] = per_job.get(job_id, 0) + 1
        for job_id in sorted(per_job):
            count = per_job[job_id]
            self._control[job_id].crashes += count
            self.crash_total += count
            self.telemetry.inc("parallel.crashes", count)
            self._event(
                barrier, "task-manager", "task-crashes",
                f"job={job_id} count={count}",
            )

    # ------------------------------------------------------------------
    def _scale(self, barrier: float, job_id: str, lag_s: float) -> List[Tuple]:
        job = self._jobs[job_id]
        control = self._control[job_id]
        commands: List[Tuple] = []
        if lag_s > job.lag_objective_s:
            control.low_streak = 0
            if control.count < job.task_count_limit:
                new = min(
                    job.task_count_limit,
                    max(control.count + 1, (control.count * 3 + 1) // 2),
                )
                commands.append(("scale", job_id, new))
                self._note_scale(barrier, job_id, "scale-up", control, new)
            elif (
                lag_s > 2.0 * job.lag_objective_s
                and control.threads_mult < MAX_THREADS_MULT
            ):
                new_mult = control.threads_mult + 1.0
                commands.append(("threads", job_id, new_mult))
                self.actions.append(ScaleAction(
                    barrier, job_id, "threads-up", control.threads_mult,
                    new_mult,
                ))
                self.telemetry.inc("parallel.commands.threads")
                self._event(
                    barrier, "load-balancer", "threads-up",
                    f"job={job_id} mult={control.threads_mult:.0f}"
                    f"->{new_mult:.0f} lag_s={lag_s:.1f}",
                )
                control.threads_mult = new_mult
        elif (
            lag_s < DOWNSCALE_FRACTION * job.lag_objective_s
            and control.count > control.initial_count
        ):
            control.low_streak += 1
            cooled = (
                barrier - control.last_scale
                >= 2.0 * self.spec.round_interval
            )
            if control.low_streak >= DOWNSCALE_STREAK and cooled:
                new = max(
                    control.initial_count,
                    control.count - max(1, control.count // 5),
                )
                if new < control.count:
                    commands.append(("scale", job_id, new))
                    self._note_scale(
                        barrier, job_id, "scale-down", control, new
                    )
                control.low_streak = 0
        else:
            control.low_streak = 0
        return commands

    def _note_scale(
        self,
        barrier: float,
        job_id: str,
        kind: str,
        control: _JobControl,
        new: int,
    ) -> None:
        self.actions.append(
            ScaleAction(barrier, job_id, kind, control.count, new)
        )
        self.telemetry.inc(f"parallel.commands.{kind}")
        self._event(
            barrier, "auto-scaler", kind,
            f"job={job_id} tasks={control.count}->{new}",
        )
        control.count = new
        control.last_scale = barrier

    # ------------------------------------------------------------------
    def _track_slo(self, barrier: float, job_id: str, lag_s: float) -> None:
        job = self._jobs[job_id]
        control = self._control[job_id]
        control.slo_evals += 1
        bad = lag_s > job.lag_objective_s
        if bad:
            control.slo_bad += 1
            self.telemetry.inc("slo.lag.bad")
        self.telemetry.inc("slo.lag.evals")
        if bad != control.breached:
            control.breached = bad
            kind = "slo-breach" if bad else "slo-recovered"
            self._event(
                barrier, "slo-tracker", kind,
                f"job={job_id} lag_s={lag_s:.1f} "
                f"objective_s={job.lag_objective_s:.1f}",
            )
        if not control.budget_spent and self._budget_burned(control) >= 1.0:
            control.budget_spent = True
            self._event(
                barrier, "slo-tracker", "budget-exhausted",
                f"job={job_id} bad={control.slo_bad}/{control.slo_evals}",
            )

    @staticmethod
    def _budget_burned(control: _JobControl) -> float:
        allowed = (1.0 - SLO_TARGET) * control.slo_evals
        if allowed <= 0.0:
            return 0.0
        return control.slo_bad / allowed

    # ------------------------------------------------------------------
    def _event(self, time: float, source: str, kind: str, detail: str) -> None:
        self.timeline.append(TimelineEvent(time, source, kind, detail))

    # ------------------------------------------------------------------
    # Exports — all canonical, all partition-count independent.
    # ------------------------------------------------------------------
    def slo_report(self, now: float) -> Dict:
        slos: Dict[str, Dict] = {}
        for job_id in self._job_order:
            job = self._jobs[job_id]
            control = self._control[job_id]
            slos[job_id] = {
                "objective_s": job.lag_objective_s,
                "target": SLO_TARGET,
                "evals": control.slo_evals,
                "bad": control.slo_bad,
                "breached": control.breached,
                "budget_burned": round(self._budget_burned(control), 6),
            }
        return {
            "generated_at": now,
            "rounds": self._rounds,
            "slos": slos,
        }

    def fingerprint(self, now: float) -> Dict:
        final: Dict[str, Dict] = {}
        for job_id in self._job_order:
            control = self._control[job_id]
            lag_u, proc_u = self._final_totals.get(job_id, (0, 0))
            final[job_id] = {
                "task_count": control.count,
                "threads_mult": control.threads_mult,
                "lag_u": lag_u,
                "processed_u": proc_u,
                "crashes": control.crashes,
            }
        return {
            "spec": self.spec.to_summary(),
            "final": final,
            "actions": [
                [a.time, a.job_id, a.kind, a.old, a.new] for a in self.actions
            ],
            "slo": self.slo_report(now),
            "rounds": self._rounds,
            "crash_total": self.crash_total,
            "stats_digest": self._stats_digest.hexdigest(),
        }

    def timeline_text(self) -> str:
        events = sorted(
            self.timeline, key=lambda e: (e.time, e.source, e.detail)
        )
        return "".join(str(event) + "\n" for event in events)
