"""The State Syncer.

"The State Syncer performs synchronization between the expected and running
job configurations every 30 seconds. In each round for every job, it merges
all levels of the expected configurations according to their precedence,
compares the result with the running job configurations, generates an
Execution Plan if any difference is detected, and carries out the plan."
(paper section III-B).

ACIDF properties and where they live here:

* **Atomicity** — :meth:`_sync_job` commits the running config only after
  the whole plan executed.
* **Consistency** — the expected view is the precedence merge, and writers
  went through the Job Service's CAS.
* **Isolation** — one plan per job per round; complex syncs serialize a
  job's structural changes.
* **Durability** — committed running configs survive syncer crashes
  (the store outlives the syncer; see the crash tests).
* **Failure handling** — a failed plan is aborted and retried next round;
  after ``QUARANTINE_AFTER`` consecutive failures the job is quarantined
  and an alert is raised for the oncall.

Incremental synchronization
---------------------------

Rescanning tens of thousands of converged jobs every 30 seconds is the
control plane's hottest path, and almost all of that work is wasted: in a
quiescent fleet nothing changed since the last round. The syncer therefore
maintains a *dirty set* via the Job Store's change feed
(:meth:`~repro.jobs.store.JobStore.change_cursor`) and examines only jobs
whose expected config, running config, lifecycle state, or torn-plan flag
changed — plus its own retry backlog (failed plans re-enter the dirty set
through ``mark_dirty``; orphaned deletions are kept in a retry set).

A periodic **full scan** (every :data:`FULL_SCAN_INTERVAL` rounds) remains as
a safety net against any mutation path the feed might miss, mirroring the
production pattern of pairing deltas with periodic anti-entropy sweeps.
Correctness does not depend on the net: the change feed is complete by
construction, and the equivalence property tests in
``tests/jobs/test_incremental_equivalence.py`` drive this syncer and the
every-round-rescans reference (``repro.testing.reference.FullScanSyncer``)
through the same random chaos and require identical outcomes.
Determinism is preserved: an incremental round examines the sorted dirty
set, so the jobs that produce plans are visited in exactly the order a
full scan would visit them.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import DegradedModeError, SyncError
from repro.jobs.configs import COMPLEX_KEYS, Config, config_diff
from repro.jobs.plan import ExecutionPlan, TaskActuator, build_plan
from repro.jobs.store import ChangeCursor, JobStore
from repro.obs.bounded import BoundedList
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.obs.trace import (
    NULL_TRACER,
    SLOT_CONFIG,
    SLOT_SYNC,
    TraceEvent,
    Tracer,
)
from repro.resilience import Dependency
from repro.sim.engine import Engine, Timer
from repro.types import JobId, JobState, Seconds

#: "The State Syncer performs synchronization ... every 30 seconds."
SYNC_INTERVAL: Seconds = 30.0

#: Consecutive failures before a job is quarantined ("If it fails for
#: multiple times, the State Syncer quarantines the job and creates an
#: alert for the oncall to investigate").
QUARANTINE_AFTER = 3

#: Retained :class:`SyncReport` history (a week of 30-second rounds); the
#: syncer runs forever in soak tests, so the audit trail must be bounded.
ROUND_RETENTION = 20_160

#: Incremental rounds between anti-entropy full scans (the safety net).
#: At the default 30-second sync interval this is one full fleet rescan
#: every ten minutes.
FULL_SCAN_INTERVAL = 20


def _outcome(name: str, doc: str) -> property:
    """A :class:`SyncReport` outcome list: made by :meth:`SyncReport.land`
    when its first job lands, read as a new empty list until then."""

    def read(report: "SyncReport") -> List[JobId]:
        landed = report._landed
        return [] if landed is None else landed.get(name, [])

    return property(read, doc=doc)


class SyncReport:
    """What one synchronization round did (for tests and dashboards).

    Most rounds are idle and a week of them is kept, so a report is slotted
    and holds an outcome list only once a job lands in it.
    """

    __slots__ = ("time", "full_scan", "skipped", "examined", "_landed")

    def __init__(
        self, time: Seconds, full_scan: bool = True, skipped: bool = False,
    ) -> None:
        self.time = time
        #: Whether this round rescanned the whole fleet (False = dirty-set only).
        self.full_scan = full_scan
        #: True when the round did nothing because the Job Store was
        #: unavailable (the syncer runs on last-known-good running state and
        #: retries next round).
        self.skipped = skipped
        #: How many live jobs the round examined (dirty-set size for
        #: incremental rounds, fleet size for full scans).
        self.examined = 0
        #: outcome -> the jobs landed in it; ``None`` while none landed.
        self._landed: Optional[Dict[str, List[JobId]]] = None

    simple_synced = _outcome("simple_synced", "Jobs a simple plan synced, and orphans collected.")
    complex_synced = _outcome("complex_synced", "Jobs a complex plan synced.")
    failed = _outcome("failed", "Jobs whose plan or orphan collection failed.")
    quarantined = _outcome("quarantined", "Jobs quarantined this round.")

    def land(self, outcome: str, job_id: JobId) -> None:
        """Record ``job_id`` under ``outcome`` (``"simple_synced"``,
        ``"complex_synced"``, ``"failed"`` or ``"quarantined"``)."""
        if self._landed is None:
            self._landed = {}
        self._landed.setdefault(outcome, []).append(job_id)

    @property
    def total_synced(self) -> int:
        return len(self.simple_synced) + len(self.complex_synced)

    def __repr__(self) -> str:
        return (
            f"SyncReport(time={self.time}, simple_synced={self.simple_synced}, "
            f"complex_synced={self.complex_synced}, failed={self.failed}, "
            f"quarantined={self.quarantined}, full_scan={self.full_scan}, "
            f"skipped={self.skipped}, examined={self.examined})"
        )


class StateSyncer:
    """Drives running configs toward expected configs, ACIDF-style."""

    def __init__(
        self,
        store: JobStore,
        actuator: TaskActuator,
        engine: Optional[Engine] = None,
        tracer: Optional[Tracer] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self._store = store
        self._actuator = actuator
        self._engine = engine
        self._tracer = tracer or NULL_TRACER
        self._telemetry = telemetry or NULL_TELEMETRY
        self._failure_counts: Dict[JobId, int] = {}
        self._timer: Optional[Timer] = None
        # Start saturated so the very first round is a full scan: it
        # sweeps cluster orphans that predate this syncer (and its
        # cursor), which no change feed can know about.
        self._rounds_since_full = FULL_SCAN_INTERVAL
        #: Dirty-set source; None between :meth:`crash` and
        #: :meth:`restart` (every round is then a full scan).
        self._cursor: Optional[ChangeCursor] = store.change_cursor()
        #: Deleted jobs whose cluster-side GC failed and must be retried.
        self._orphan_retry: set = set()
        self.rounds: List[SyncReport] = BoundedList(maxlen=ROUND_RETENTION)
        #: Oncall alerts raised on quarantine, as ``(time, job_id, reason)``.
        self.alerts: List[tuple] = []
        #: Callbacks invoked with (job_id, reason) when a job is quarantined.
        self.on_quarantine: List[Callable[[JobId, str], None]] = []
        #: Counted edges. A round skipped by a store outage or a failed
        #: plan is retried on the next round.
        self._store_dep = Dependency("syncer.job-store", self._telemetry)
        self._actuator_dep = Dependency("syncer.actuator", self._telemetry)

    # ------------------------------------------------------------------
    # Periodic operation
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the periodic 30-second synchronization timer."""
        if self._engine is None:
            raise SyncError("cannot start a syncer without an engine")
        if self._timer is not None:
            return
        self._timer = self._engine.every(
            SYNC_INTERVAL, self.sync_once, name="state-syncer"
        )

    def stop(self) -> None:
        """Stop the periodic timer (simulates a syncer crash)."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def crash(self) -> None:
        """Simulate a hard crash: the process dies with all in-memory
        state — the dirty-set cursor, consecutive-failure counts, and the
        orphan retry set. Durable state (the Job Store) is untouched.
        """
        self.stop()
        if self._cursor is not None:
            self._cursor.close()
            self._cursor = None
        self._failure_counts.clear()
        self._orphan_retry.clear()
        self._telemetry.inc("syncer.crashes")

    def restart(self) -> None:
        """Restart after :meth:`crash`: anti-entropy recovery.

        A fresh change cursor is subscribed (backfilled with every live
        job) and the full-scan counter is saturated, so the first round
        rescans the whole fleet — exactly how a new syncer process makes
        up for the deltas its predecessor lost.
        """
        if self._cursor is None:
            self._cursor = self._store.change_cursor()
        self._rounds_since_full = FULL_SCAN_INTERVAL
        self._telemetry.inc("syncer.restarts")
        if self._engine is not None and self._timer is None:
            self.start()

    @property
    def now(self) -> Seconds:
        return self._engine.now if self._engine is not None else 0.0

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    def sync_once(self) -> SyncReport:
        """Run one synchronization round over every non-quarantined job
        that might need work.

        Only the dirty set (jobs the change feed reported since the
        previous round) is examined; every :data:`FULL_SCAN_INTERVAL` rounds
        — and always while a crash has left the syncer without a cursor —
        the whole fleet is rescanned as an anti-entropy safety net.
        Either way, simple synchronizations are batched into the round
        and each is planned, run and committed in turn; complex ones run
        individually after them. This mirrors the paper's "batches the
        simple synchronizations and parallelize[s] the complex ones".
        """
        started_wall = perf_counter() if self._telemetry.enabled else 0.0
        try:
            self._store_dep.call(self._store.ping)
        except DegradedModeError:
            # Job Store outage: skip the round — the cluster keeps running
            # on last-known-good state, and everything that changes in the
            # meantime accumulates in the change feed for the next round.
            report = SyncReport(time=self.now, full_scan=False, skipped=True)
            self.rounds.append(report)
            self._telemetry.inc("syncer.rounds_skipped")
            return report
        full_scan = (
            self._cursor is None
            or self._rounds_since_full >= FULL_SCAN_INTERVAL
        )
        report = SyncReport(time=self.now, full_scan=full_scan)

        dirty_size = 0
        if full_scan:
            self._rounds_since_full = 0
            if self._cursor is not None:
                # The scan supersedes every pending delta.
                self._cursor.poll()
            self._collect_deleted_jobs(report)
            candidates = self._store.job_ids()
        else:
            self._rounds_since_full += 1
            changed = self._cursor.poll()
            dirty_size = len(changed)
            try:
                candidates = self._collect_feed_deletions(changed, report)
            except Exception:
                self._requeue(changed)
                raise
        report.examined = len(candidates)
        # The round streams: a simple plan runs and commits as soon as it
        # is planned, so the store holds one job's merged config at a
        # time, not the whole wave's. Complex plans (parallelism changes)
        # wait for the simple ones, so the run order is that of a round
        # that planned everything first. Planning a job reads only its
        # own store entries, and a plan writes only its own job's.
        round_event: Optional[TraceEvent] = None
        simple_count = 0
        complex_plans: List[ExecutionPlan] = []
        # How far the round got: candidates before ``position`` are planned
        # (and their simple plans run); the first ``complex_ran`` complex
        # plans ran.
        position = complex_ran = 0
        try:
            for position, job_id in enumerate(candidates):
                if self._store.state_of(job_id) == JobState.QUARANTINED:
                    continue
                plan = self._plan_for(job_id)
                if plan is None:
                    continue
                if not simple_count and not complex_plans:
                    # A round trace event only when the round does work:
                    # an idle 30-second tick would otherwise bloat every
                    # trace export. Its counts are filled in below.
                    round_event = self._tracer.record(
                        "state-syncer", "sync-round"
                    )
                if plan.complex:
                    complex_plans.append(plan)
                    continue
                simple_count += 1
                self._run_plan(plan, report, round_event)
            position = len(candidates)
            for plan in complex_plans:
                self._run_plan(plan, report, round_event)
                complex_ran += 1
        except Exception:
            # A raise (a Job Store outage that began inside a plan) must
            # not take the drained feed with it: every job the round did
            # not finish, the raising one included, waits for the next.
            self._requeue(candidates[position:])
            self._requeue(plan.job_id for plan in complex_plans[complex_ran:])
            raise
        finally:
            # A round cut short by a raise counts the plans it found.
            self._tracer.complete(
                round_event, simple=simple_count, complex=len(complex_plans),
            )

        self.rounds.append(report)
        if self._telemetry.enabled:
            self._telemetry.inc("syncer.rounds")
            if simple_count or complex_plans:
                self._telemetry.observe(
                    "syncer.batch.simple", float(simple_count)
                )
                self._telemetry.observe(
                    "syncer.batch.complex", float(len(complex_plans))
                )
            if report.failed:
                self._telemetry.inc(
                    "syncer.plan_failures", float(len(report.failed))
                )
            wall_ms = (perf_counter() - started_wall) * 1000.0
            self._telemetry.observe("syncer.round_wall_ms", wall_ms)
            # ``cache.*`` instruments describe how the round was computed,
            # not what it decided; deterministic telemetry exports skip
            # them (see Telemetry.snapshot).
            if full_scan:
                self._telemetry.inc("cache.syncer.full_scans")
                self._telemetry.observe("syncer.full_round_wall_ms", wall_ms)
            else:
                self._telemetry.inc("cache.syncer.incremental_rounds")
                self._telemetry.observe(
                    "syncer.incremental_round_wall_ms", wall_ms
                )
                self._telemetry.observe(
                    "cache.syncer.dirty_set", float(dirty_size)
                )
            self._telemetry.observe(
                "cache.syncer.examined", float(report.examined)
            )
        return report

    def _requeue(self, job_ids: Iterable[JobId]) -> None:
        """Put jobs a raising round drained from the feed back on it."""
        if self._cursor is not None:
            for job_id in job_ids:
                self._cursor.push(job_id)

    def _collect_deleted_jobs(self, report: SyncReport) -> None:
        """Garbage-collect cluster state of jobs deleted from the store.

        A defensive sweep: even if a deprovision call died between
        deleting the store entry and stopping the tasks, the next round
        converges the cluster to "job gone" — the same eventual-delivery
        guarantee configuration changes get. The actuator names every
        job anything is kept for; those the store lacks are forgotten.
        """
        live = set(self._store.job_ids())
        for job_id in self._failure_counts.keys() - live:
            del self._failure_counts[job_id]
        for job_id in sorted(set(self._actuator.known_job_ids()) - live):
            self._stop_orphan(job_id, report)

    def _collect_feed_deletions(
        self, changed: List[JobId], report: SyncReport
    ) -> List[JobId]:
        """Split a dirty set into live candidates and deletions to GC.

        Deleted jobs reach the dirty set through the change feed (the
        store notifies on ``delete_job``); jobs whose GC failed earlier
        sit in the retry set until a round succeeds or a full scan finds
        them gone from the cluster. Returns the live candidates in the
        same sorted order a full scan would visit them.
        """
        candidates: List[JobId] = []
        deleted = set(self._orphan_retry)
        for job_id in changed:
            if self._store.exists(job_id):
                candidates.append(job_id)
            else:
                deleted.add(job_id)
                self._failure_counts.pop(job_id, None)
        if deleted:
            known = set(self._actuator.known_job_ids())
            for job_id in sorted(deleted):
                if job_id not in known or self._store.exists(job_id):
                    self._orphan_retry.discard(job_id)
                    continue
                self._stop_orphan(job_id, report)
        return candidates

    def _stop_orphan(self, job_id: JobId, report: SyncReport) -> None:
        """GC the cluster state of one store-deleted job (best effort)."""
        try:
            self._actuator_dep.call(self._actuator.forget_job, job_id)
            report.land("simple_synced", job_id)
            self._orphan_retry.discard(job_id)
        except Exception:  # noqa: BLE001 — retried next round
            report.land("failed", job_id)
            self._orphan_retry.add(job_id)

    def forget_job(self, job_id: JobId) -> None:
        """A failure streak ends with its job, not with the job's id."""
        self._failure_counts.pop(job_id, None)

    def held_jobs(self) -> Iterable[JobId]:
        return self._failure_counts.keys()

    def _plan_for(self, job_id: JobId) -> Optional[ExecutionPlan]:
        """The job's plan, or ``None`` when running already matches
        expected. A job unchanged since this syncer's own quiet commit is
        answered by the store's version stamp, with no merge and no diff."""
        expected = self._store.expected_for_sync(job_id)
        if expected is None:
            return None
        return self._plan_from(job_id, expected)

    def _plan_from(
        self, job_id: JobId, expected: Config
    ) -> Optional[ExecutionPlan]:
        running = self._store.read_running(job_id).config
        diff = config_diff(running, expected)
        if not diff and self._store.is_dirty(job_id):
            # A previous plan aborted mid-flight: the running config may
            # not match cluster reality even though it equals the expected
            # config. Force a full (complex) resynchronization.
            diff = dict.fromkeys(COMPLEX_KEYS)
        if not diff:
            return None
        return build_plan(job_id, running, expected, diff)

    def _run_plan(
        self,
        plan: ExecutionPlan,
        report: SyncReport,
        round_event: Optional[TraceEvent] = None,
    ) -> None:
        job_id = plan.job_id
        # Link the plan to the config write that created the divergence
        # (claimed exactly once); a re-sync of the same divergence falls
        # back to the round event.
        parent = self._tracer.claim_context(job_id, SLOT_CONFIG) or round_event
        plan_event = self._tracer.record(
            "state-syncer", "sync-plan", job_id=job_id, parent=parent,
            complex=plan.complex,
            actions=[action.name for action in plan.actions],
        )
        # Published (not claimed) so every task-spec change and task start
        # the plan causes can link back to it while the plan is current.
        self._tracer.set_context(job_id, SLOT_SYNC, plan_event)
        try:
            self._actuator_dep.call(plan.execute, self._actuator)
        except Exception as exc:  # noqa: BLE001 — any actuator failure aborts
            # The aborted plan may have already acted on the cluster
            # (e.g. stopped tasks): mark the job so a later round resyncs
            # even if the expected config is reverted in the meantime.
            self._store.mark_dirty(job_id)
            self._tracer.record(
                "state-syncer", "sync-fail", job_id=job_id,
                parent=plan_event, error=str(exc),
            )
            self._record_failure(job_id, str(exc), report, plan_event)
            return
        # Atomic commit: only reached when every action succeeded. Quiet:
        # the job is converged, so the change feed must not re-dirty it.
        self._store.commit_running(job_id, plan.target_config, quiet=True)
        self._failure_counts.pop(job_id, None)
        report.land("complex_synced" if plan.complex else "simple_synced", job_id)

    def _record_failure(
        self,
        job_id: JobId,
        reason: str,
        report: SyncReport,
        plan_event: Optional[TraceEvent] = None,
    ) -> None:
        count = self._failure_counts.get(job_id, 0) + 1
        self._failure_counts[job_id] = count
        report.land("failed", job_id)
        if count >= QUARANTINE_AFTER:
            self._store.set_state(job_id, JobState.QUARANTINED)
            report.land("quarantined", job_id)
            self.alerts.append((self.now, job_id, reason))
            self._tracer.record(
                "state-syncer", "job-quarantined", job_id=job_id,
                parent=plan_event, reason=reason, failures=count,
            )
            self._telemetry.inc("syncer.quarantines")
            for callback in self.on_quarantine:
                callback(job_id, reason)

    # ------------------------------------------------------------------
    # Oncall operations
    # ------------------------------------------------------------------
    def release_quarantine(self, job_id: JobId) -> None:
        """Oncall action: put a quarantined job back under management."""
        if self._store.state_of(job_id) != JobState.QUARANTINED:
            raise SyncError(f"job {job_id} is not quarantined")
        self._store.set_state(job_id, JobState.RUNNING)
        self._failure_counts.pop(job_id, None)

    def failure_count(self, job_id: JobId) -> int:
        """Consecutive plan failures for a job (0 when healthy)."""
        return self._failure_counts.get(job_id, 0)
