"""The Job Store: expected and running configuration tables (Table I).

The store keeps, for every job:

* four *expected* configuration levels (Base, Provisioner, Scaler, Oncall),
  each independently versioned so writers can do optimistic
  read-modify-write ("the write operation compares the version of the
  expected job configuration to make sure the configuration is the same
  version based on which the update decision is made", section III-A);
* one *running* configuration — the settings the cluster is actually
  executing, committed only by the State Syncer after a plan succeeds.

Like the paper's MySQL table of JSON documents, each is kept as the JSON
text :func:`validate_config` returns, and decoded where it is used.

Durability is modelled with JSON snapshots: :meth:`dump_snapshot` /
:meth:`load_snapshot` round-trip the entire store, which the crash-recovery
tests use to prove committed state survives a restart.

The store also exposes a *change feed* (:meth:`change_cursor`): a
drainable set of job ids whose stored state changed since the cursor was
last polled. The State Syncer uses it to sync only the jobs that could
possibly need work instead of rescanning the whole fleet every round.
Every mutation path notifies the feed except :meth:`commit_running` with
``quiet=True`` — the syncer's own commit, which by construction leaves
the job converged and must not re-dirty it.

Algorithm 1 runs once per config change. A job's merge (:class:`_Merge`)
is kept from the first read that needs it until the job's next
notification: :meth:`JobStore.view` and the State Syncer's
:meth:`JobStore.expected_for_sync` are served by the same one, whichever
reads first. The merged dict itself is held only until the syncer's
quiet commit of it (or its read that finds the job converged); after
that only the typed view stays. That commit stamps the job as
converged, so a later full-scan round skips it without merging: nothing
changed since, or a notification would have dropped the stamp with the
merge.

The stamp also answers the convergence oracle
(:meth:`JobStore.config_converged`) with no merge. It is exact: every
mutation notifies or stamps, :meth:`JobStore.install_state` clears the
merges, and a stored level is a ``str`` that no reader can change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, NamedTuple, Optional

from repro.errors import (
    JobStoreError,
    ServiceUnavailableError,
    VersionConflictError,
)
from repro.jobs.configs import (
    Config,
    ConfigLevel,
    config_diff,
    merge_levels,
    validate_config,
)
from repro.jobs.model import JobView
from repro.types import JobId, JobState


@dataclass
class VersionedConfig:
    """A configuration dict plus its optimistic-concurrency version."""

    config: Config = field(default_factory=dict)
    version: int = 0


#: One stored expected level or running config: its JSON text and version.
_Stored = NamedTuple("_Stored", [("text", str), ("version", int)])

#: Every level and running config of a new job: one immutable value.
_EMPTY = _Stored("{}", 0)

#: ``_Merge.synced`` of a merge the State Syncer has read and not yet
#: committed (running versions start at 0, so no stamp equals it).
_READ = -1


class _Merge:
    """One job's Algorithm 1 merge, kept until the job's next notification.

    Life cycle: built with ``config`` (the merged dict) and ``synced is
    None`` by the first read that needs it; read by the State Syncer
    (``synced == _READ``, the dict still held for its commit); stamped
    converged (``config`` dropped to ``None``, ``synced`` the running
    version) by a quiet commit that matches it, or by a syncer read that
    finds the job converged already.
    """

    __slots__ = ("view", "config", "synced")

    def __init__(self, view: JobView, config: Config) -> None:
        self.view = view
        self.config: Optional[Config] = config
        #: ``None``, ``_READ``, or the version stamp: the running-config
        #: version at which the job was found converged on this merge.
        self.synced: Optional[int] = None

    def stamped(self, version: int) -> bool:
        """Whether this merge vouches the job converged at ``version``."""
        return self.config is None and self.synced == version


class ChangeCursor:
    """A drainable feed of job ids whose store state changed.

    Created via :meth:`JobStore.change_cursor`; pre-seeded with every job
    that exists at creation time, so a consumer that processes everything
    the cursor yields sees each job at least once — divergences that
    predate the cursor are not lost. :meth:`poll` returns the pending ids
    (sorted, for deterministic iteration) and clears them.
    """

    def __init__(self, store: "JobStore", backfill) -> None:
        self._store = store
        self._pending: set = set(backfill)

    def push(self, job_id: JobId) -> None:
        self._pending.add(job_id)

    def poll(self) -> List[JobId]:
        """All job ids changed since the last poll (sorted); drains."""
        pending = sorted(self._pending)
        self._pending.clear()
        return pending

    def close(self) -> None:
        """Detach from the store (no further notifications)."""
        self._store._cursors = [
            cursor for cursor in self._store._cursors if cursor is not self
        ]


class JobStore:
    """In-memory versioned store of expected and running job configurations."""

    def __init__(self) -> None:
        self._expected: Dict[JobId, Dict[ConfigLevel, _Stored]] = {}
        self._running: Dict[JobId, _Stored] = {}
        self._states: Dict[JobId, JobState] = {}
        #: Jobs whose running config may not reflect cluster reality: a
        #: plan failed after taking actions. The syncer must re-execute a
        #: full synchronization even when expected == running.
        self._dirty: set = set()
        #: Live change-feed cursors (see :meth:`change_cursor`).
        self._cursors: List[ChangeCursor] = []
        #: Per-job merges (see :class:`_Merge`), built on first read and
        #: dropped by the job's next notification.
        self._merges: Dict[JobId, _Merge] = {}
        #: The parts equal configs decode to, one object each, shared by
        #: every view the merges build (``JobView.from_config``'s memo):
        #: one entry per distinct value this store has seen.
        self._parts: Dict[Any, Any] = {}
        #: When False the store is in an availability window: every data
        #: operation raises :class:`ServiceUnavailableError` and clients
        #: run on last-known-good state (the production store is MySQL;
        #: this models a primary outage). Snapshot durability helpers are
        #: exempt — they model the disk, not the service.
        self.available = True
        #: Command tap for state-machine replication (see
        #: :mod:`repro.replication`): called with ``(op, args)`` *after*
        #: every successful mutation, in execution order. Because the
        #: store serializes mutations, the emitted command sequence *is*
        #: the store's history — replaying it into a fresh store yields
        #: a byte-identical snapshot (the log-equivalence suite).
        self._command_sink: Optional[Callable[[str, Dict[str, Any]], None]] = None

    # ------------------------------------------------------------------
    # Replication tap
    # ------------------------------------------------------------------
    def set_command_sink(
        self, sink: Optional[Callable[[str, Dict[str, Any]], None]]
    ) -> None:
        """Install (or clear) the replication command tap."""
        self._command_sink = sink

    def _emit(self, op: str, **args: Any) -> None:
        if self._command_sink is not None:
            if "config" in args:  # the stored text: the sink gets its own decode
                args["config"] = json.loads(args["config"])
            self._command_sink(op, args)

    # ------------------------------------------------------------------
    # Availability (chaos hooks)
    # ------------------------------------------------------------------
    def fail(self) -> None:
        """Begin an availability window (all data operations raise)."""
        self.available = False

    def recover(self) -> None:
        """End the availability window."""
        self.available = True

    def ping(self) -> None:
        """Cheap liveness probe: raises when unavailable, else a no-op.

        O(1) — periodic callers use it to decide whether to skip a round
        without paying for a fleet scan.
        """
        self._check_available()

    def _check_available(self) -> None:
        if not self.available:
            raise ServiceUnavailableError("Job Store is unavailable")

    # ------------------------------------------------------------------
    # Change feed
    # ------------------------------------------------------------------
    def change_cursor(self) -> ChangeCursor:
        """Subscribe a new :class:`ChangeCursor` to this store's mutations.

        The cursor is backfilled with every currently-live job, so the
        first poll covers the whole fleet.
        """
        cursor = ChangeCursor(self, self._expected)
        self._cursors.append(cursor)
        return cursor

    def _notify_change(self, job_id: JobId) -> None:
        self._merges.pop(job_id, None)
        for cursor in self._cursors:
            cursor.push(job_id)

    # ------------------------------------------------------------------
    # Job lifecycle
    # ------------------------------------------------------------------
    def create_job(self, job_id: JobId) -> None:
        """Register a job with empty config levels."""
        self._check_available()
        if job_id in self._expected:
            raise JobStoreError(f"job {job_id} already exists")
        self._expected[job_id] = dict.fromkeys(ConfigLevel, _EMPTY)
        self._running[job_id] = _EMPTY
        self._states[job_id] = JobState.RUNNING
        self._notify_change(job_id)
        self._emit("create_job", job_id=job_id)

    def delete_job(self, job_id: JobId) -> None:
        """Remove a job entirely."""
        self._check_available()
        self._require_job(job_id)
        del self._expected[job_id]
        del self._running[job_id]
        self._dirty.discard(job_id)
        self._states[job_id] = JobState.DELETED
        self._notify_change(job_id)
        self._emit("delete_job", job_id=job_id)

    def job_ids(self) -> List[JobId]:
        """All live jobs, sorted for deterministic iteration."""
        self._check_available()
        return sorted(self._expected)

    def exists(self, job_id: JobId) -> bool:
        self._check_available()
        return job_id in self._expected

    def state_of(self, job_id: JobId) -> JobState:
        """Lifecycle state; DELETED jobs are remembered for audit."""
        self._check_available()
        try:
            return self._states[job_id]
        except KeyError:
            raise JobStoreError(f"unknown job {job_id}") from None

    def set_state(self, job_id: JobId, state: JobState) -> None:
        self._check_available()
        self._require_job(job_id)
        self._states[job_id] = state
        self._notify_change(job_id)
        self._emit("set_state", job_id=job_id, state=state.value)

    # ------------------------------------------------------------------
    # Expected configurations
    # ------------------------------------------------------------------
    def read_expected(
        self, job_id: JobId, level: ConfigLevel
    ) -> VersionedConfig:
        """One expected level (config + version), decoded for the caller."""
        self._check_available()
        self._require_job(job_id)
        stored = self._expected[job_id][level]
        return VersionedConfig(json.loads(stored.text), stored.version)

    def write_expected(
        self,
        job_id: JobId,
        level: ConfigLevel,
        config: Config,
        expected_version: int,
    ) -> int:
        """Compare-and-swap write of one expected level.

        Succeeds only when ``expected_version`` matches the stored version;
        returns the new version. This serializes concurrent writers to the
        same level (e.g. two oncalls editing the oncall config).
        """
        self._check_available()
        self._require_job(job_id)
        text = validate_config(config)
        stored = self._expected[job_id][level]
        if stored.version != expected_version:
            raise VersionConflictError(
                f"job {job_id} level {level.name}: expected version "
                f"{expected_version}, found {stored.version}"
            )
        self._expected[job_id][level] = stored = _Stored(text, stored.version + 1)
        self._notify_change(job_id)
        self._emit(
            "write_expected", job_id=job_id, level=level.name,
            config=text, expected_version=expected_version,
        )
        return stored.version

    def merged_expected(self, job_id: JobId) -> Config:
        """All expected levels merged by precedence (Algorithm 1): a fresh
        dict the caller may change."""
        self._check_available()
        self._require_job(job_id)
        return self._merge_levels(job_id)

    def _merge_levels(self, job_id: JobId) -> Config:
        return merge_levels({
            level: json.loads(s.text) for level, s in self._expected[job_id].items()
            if s.text != "{}"
        })

    def _merge(self, job_id: JobId) -> _Merge:
        config = self._merge_levels(job_id)
        merge = self._merges[job_id] = _Merge(
            JobView.from_config(config, self._parts), config
        )
        return merge

    def view(self, job_id: JobId) -> JobView:
        """The merged expected configuration, typed and immutable: merged
        once per config change (kept until the job's next notification),
        raising exactly when :meth:`merged_expected` would."""
        self._check_available()
        self._require_job(job_id)
        merge = self._merges.get(job_id)
        if merge is None:
            merge = self._merge(job_id)
        return merge.view

    def expected_for_sync(self, job_id: JobId) -> Optional[Config]:
        """The State Syncer's read of the merged expected configuration.

        ``None`` when there is nothing to plan: the job is not dirty and
        running equals merged expected (no :func:`config_diff`), answered
        with no merge and no diff while the job is unchanged since it was
        last found so. Otherwise the merged dict, shared with :meth:`view`
        and not to be changed; it is merged here only when no read since
        the job's last notification merged it already.
        """
        self._check_available()
        self._require_job(job_id)
        running = self._running[job_id]
        merge = self._merges.get(job_id)
        if merge is not None and merge.stamped(running.version):
            return None
        if merge is None:
            merge = self._merge(job_id)
        elif merge.config is None:
            merge.config = self._merge_levels(job_id)
        if job_id not in self._dirty and not config_diff(
            json.loads(running.text), merge.config
        ):
            # Converged already (the syncer would plan nothing): stamp it
            # here, so the dict is not held for a commit that never comes.
            merge.config, merge.synced = None, running.version
            return None
        merge.synced = _READ
        return merge.config

    def config_converged(self, job_id: JobId) -> bool:
        """``not is_dirty(j) and not config_diff(read_running(j).config,
        merged_expected(j))``, raising exactly when :meth:`merged_expected`
        would. Pure: read from the job's stamp when it has one, else diffed
        against its held merge or a fresh one that is not kept."""
        self._check_available()
        self._require_job(job_id)
        if job_id in self._dirty:
            return False
        running = self._running[job_id]
        merge = self._merges.get(job_id)
        if merge is not None and merge.stamped(running.version):
            return True
        merged = merge.config if merge is not None else None
        if merged is None:
            merged = self._merge_levels(job_id)
        return not config_diff(json.loads(running.text), merged)

    # ------------------------------------------------------------------
    # Running configuration
    # ------------------------------------------------------------------
    def read_running(self, job_id: JobId) -> VersionedConfig:
        """The running configuration, decoded for the caller."""
        self._check_available()
        self._require_job(job_id)
        stored = self._running[job_id]
        return VersionedConfig(json.loads(stored.text), stored.version)

    def commit_running(
        self, job_id: JobId, config: Config, quiet: bool = False
    ) -> int:
        """Replace the running configuration.

        Commit is the *last* step of a synchronization: it happens "only
        after the plan is successfully executed" (section III-B), which is
        what makes updates atomic from the cluster's point of view.

        ``quiet=True`` is reserved for the State Syncer's own commits: the
        job is converged by construction, so notifying the change feed
        would only make the next incremental round re-examine it for
        nothing. Every other caller (e.g. the Capacity Manager invalidating
        a running config to force a restart) uses the default and wakes the
        syncer up.
        """
        self._check_available()
        self._require_job(job_id)
        text = validate_config(config)
        stored = self._running[job_id] = _Stored(text, self._running[job_id].version + 1)
        self._dirty.discard(job_id)
        if not quiet:
            self._notify_change(job_id)
        else:
            self._stamp_synced(job_id, stored)
        self._emit("commit_running", job_id=job_id, config=text, quiet=quiet)
        return stored.version

    def _stamp_synced(self, job_id: JobId, stored: _Stored) -> None:
        """After a quiet commit: stamp the job converged when the syncer
        read the job's current merge and the committed config matches it.

        A merge the syncer has not read was built after a notification, so
        it is left to be planned. The match is judged by
        :func:`config_diff` on the committed config as stored, exactly as
        the syncer's next read would judge it (a ``nan`` never matches).
        """
        merge = self._merges.get(job_id)
        if merge is None or merge.synced is None:
            return
        if merge.synced == _READ and not config_diff(json.loads(stored.text), merge.config):
            merge.config, merge.synced = None, stored.version
        else:
            # Another config than the one read, or a second commit of one
            # read: nothing to vouch for, so merge again next time.
            del self._merges[job_id]

    # ------------------------------------------------------------------
    # Dirtiness (torn-plan) tracking
    # ------------------------------------------------------------------
    def mark_dirty(self, job_id: JobId) -> None:
        """Flag that the running config may not match cluster reality.

        Set by the State Syncer when a plan fails *after* performing
        actions: the aborted plan may have stopped tasks, so even a
        reverted expected config must trigger a full resynchronization.
        """
        self._check_available()
        self._require_job(job_id)
        self._dirty.add(job_id)
        self._notify_change(job_id)
        self._emit("mark_dirty", job_id=job_id)

    def is_dirty(self, job_id: JobId) -> bool:
        self._check_available()
        self._require_job(job_id)
        return job_id in self._dirty

    # ------------------------------------------------------------------
    # Durability snapshots
    # ------------------------------------------------------------------
    def dump_snapshot(self) -> str:
        """Serialize the whole store to a JSON string."""
        payload = {
            "expected": {
                job_id: {
                    level.name: {"config": json.loads(s.text), "version": s.version}
                    for level, s in levels.items()
                }
                for job_id, levels in self._expected.items()
            },
            "running": {
                job_id: {"config": json.loads(s.text), "version": s.version}
                for job_id, s in self._running.items()
            },
            "states": {
                job_id: state.value for job_id, state in self._states.items()
            },
            "dirty": sorted(self._dirty),
        }
        # Canonical form (sorted keys): two stores with the same logical
        # state dump the same bytes, which is what lets the replication
        # equivalence suite compare replicas byte-for-byte.
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def load_snapshot(cls, snapshot: str) -> "JobStore":
        """Reconstruct a store from :meth:`dump_snapshot` output."""
        payload = json.loads(snapshot)
        store = cls()
        for job_id, levels in payload["expected"].items():
            store._expected[job_id] = {
                ConfigLevel[name]: _Stored(
                    json.dumps(entry["config"]), entry["version"]
                )
                for name, entry in levels.items()
            }
        for job_id, entry in payload["running"].items():
            store._running[job_id] = _Stored(
                json.dumps(entry["config"]), entry["version"]
            )
        for job_id, value in payload["states"].items():
            store._states[job_id] = JobState(value)
        store._dirty = set(payload.get("dirty", []))
        return store

    # ------------------------------------------------------------------
    # Replication takeover
    # ------------------------------------------------------------------
    def install_state(self, source: "JobStore") -> None:
        """Adopt ``source``'s tables in place (leader promotion).

        The store object is the *service endpoint* — every client holds a
        reference to it — so a failover cannot replace the object, only
        its state. The promoted replica's tables are moved in (not
        copied: the replica hands them over and is rebuilt from scratch
        if it ever rejoins), live change cursors are kept, and every job
        is pushed into them: a new leader cannot trust deltas queued
        against its predecessor, so the next incremental sync round
        re-examines the whole fleet (anti-entropy, exactly like a syncer
        restart).
        """
        self._expected = source._expected
        self._running = source._running
        self._states = source._states
        self._dirty = source._dirty
        # Cleared whole: a job the new tables lack is named by no
        # notification, so its merge would otherwise be held for good.
        self._merges.clear()
        for job_id in sorted(self._expected):
            self._notify_change(job_id)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_job(self, job_id: JobId) -> None:
        if job_id not in self._expected:
            raise JobStoreError(f"unknown job {job_id}")

    def __repr__(self) -> str:
        return f"JobStore(jobs={len(self._expected)})"
