"""Hypothesis state machine for the Job Store's CAS semantics.

Random interleavings of reads, CAS writes (fresh and stale), commits, and
snapshot round-trips must preserve:

* a stale-version write NEVER lands (isolation);
* the stored config is always the last successfully-written one;
* versions are strictly monotone per level;
* a snapshot round-trip is an identity;
* the typed view the store serves (``view``) is always the view of the
  current merged config, and fails exactly as the merged read fails —
  across writes, deletes and re-creates, state changes, outages and a
  takeover by a follower that lacks a job or holds an older config;
* ``merged_expected`` is a fresh dict each time (changing it changes
  nothing the store holds);
* the syncer's read (``expected_for_sync``) answers "nothing to plan"
  only for a converged, clean job, and otherwise the merged config;
* the convergence oracle's read (``config_converged``) is "clean, and
  running equals merged expected", fails exactly as the merged read
  fails, and changes nothing the store holds or will answer next;
* a Job Service update that edits nested maps of its copy in place and
  is then rejected leaves nothing behind.
"""

import re

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.errors import JobStoreError, TurbineError, VersionConflictError
from repro.jobs import ConfigLevel, JobService, JobStore, JobView
from repro.jobs.configs import config_diff
from repro.types import JobState

LEVELS = list(ConfigLevel)
JOBS = ["job-a", "job-b"]

#: Every rule that talks to the store needs it up (the outage itself is
#: judged by the ``view_is_the_merged_config`` invariant).
store_up = precondition(lambda self: self.store.available)
any_job = st.sampled_from(JOBS)


class JobStoreMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.store = JobStore()
        #: Our model: (job, level) -> (config, version), live jobs only.
        self.model = {}
        #: A follower's tables: (snapshot, the model it corresponds to).
        self.follower = None

    def live(self, job):
        return (job, ConfigLevel.BASE) in self.model

    def _create(self, job_id):
        self.store.create_job(job_id)
        for level in LEVELS:
            self.model[(job_id, level)] = ({}, 0)

    def _forget(self, job_id):
        for level in LEVELS:
            self.model.pop((job_id, level), None)

    @initialize()
    def create_jobs(self):
        for job_id in JOBS:
            self._create(job_id)
            # A provisioned job's base level holds nested maps.
            base = {"package": {"version": "1.0"}}
            self.store.write_expected(job_id, ConfigLevel.BASE, base, 0)
            self.model[(job_id, ConfigLevel.BASE)] = (base, 1)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------
    @store_up
    @rule(
        job=any_job,
        level=st.sampled_from(LEVELS),
        value=st.integers(0, 100),
        package=st.one_of(st.none(), st.sampled_from(["1.0", "2.0"])),
    )
    def fresh_write_lands(self, job, level, value, package):
        if not self.live(job):
            return
        config, version = self.model[(job, level)]
        new_config = {"task_count": value}
        if package is not None:
            new_config["package"] = {"version": package}
        new_version = self.store.write_expected(job, level, new_config, version)
        assert new_version == version + 1
        self.model[(job, level)] = (new_config, new_version)

    @store_up
    @rule(
        job=any_job,
        level=st.sampled_from(LEVELS),
        stale_delta=st.integers(1, 3),
        value=st.integers(0, 100),
    )
    def stale_write_rejected(self, job, level, stale_delta, value):
        if not self.live(job):
            return
        __, version = self.model[(job, level)]
        stale = version - stale_delta
        try:
            self.store.write_expected(job, level, {"task_count": value}, stale)
            raise AssertionError("stale write must not land")
        except VersionConflictError:
            pass

    @store_up
    @rule(job=any_job)
    def rejected_updates_edit_nested_maps(self, job):
        """At every level, ``modify`` edits the nested maps of its copy in
        place, then fails the typed check: each write is rejected and must
        leave the store exactly as it was (no stale stamp over a changed
        level)."""
        if not self.live(job):
            return

        def modify(config):
            for value in config.values():
                if isinstance(value, dict):
                    value["version"] = "9.9"
            config["task_count"] = "many"
            return config

        service = JobService(self.store)
        for level in LEVELS:
            with pytest.raises(JobStoreError, match="task_count"):
                service.update(job, level, modify)

    @store_up
    @rule(job=any_job, value=st.integers(0, 100), quiet=st.booleans())
    def commit_running(self, job, value, quiet):
        if self.live(job):
            self.store.commit_running(job, {"task_count": value}, quiet=quiet)

    @store_up
    @rule(job=any_job, commit=st.booleans())
    def syncer_reads(self, job, commit):
        """The State Syncer's read: ``None`` only for a job whose running
        config is its merged expected one and that is not dirty; otherwise
        the merged config, which a quiet commit may then realise."""
        if not self.live(job):
            return
        expected = self.store.expected_for_sync(job)
        if expected is None:
            assert self.store.read_running(job).config == (
                self.store.merged_expected(job)
            )
            assert not self.store.is_dirty(job)
            return
        assert expected == self.store.merged_expected(job)
        if commit:
            self.store.commit_running(job, dict(expected), quiet=True)
            assert self.store.expected_for_sync(job) is None

    @store_up
    @rule()
    def snapshot_round_trip(self):
        restored = JobStore.load_snapshot(self.store.dump_snapshot())
        assert restored.dump_snapshot() == self.store.dump_snapshot()
        self.store = restored  # keep operating on the restored store

    @store_up
    @rule(job=any_job)
    def delete_then_maybe_recreate(self, job):
        """Delete a live job; re-create a deleted one (empty levels — it
        must not answer with the view of the job it replaced)."""
        if self.live(job):
            self.store.delete_job(job)
            self._forget(job)
        else:
            self._create(job)

    @store_up
    @rule(job=any_job, state=st.sampled_from(
        [JobState.RUNNING, JobState.STOPPED, JobState.QUARANTINED]))
    def set_state(self, job, state):
        if self.live(job):
            self.store.set_state(job, state)

    @store_up
    @rule(job=any_job)
    def mark_dirty(self, job):
        if self.live(job):
            self.store.mark_dirty(job)

    @rule(down=st.booleans())
    def outage(self, down):
        if down:
            self.store.fail()
        else:
            self.store.recover()

    @store_up
    @rule(lost=st.one_of(st.none(), any_job))
    def follower_falls_behind(self, lost):
        """Capture a follower's tables as of now — optionally one that
        never saw ``lost`` at all."""
        follower = JobStore.load_snapshot(self.store.dump_snapshot())
        model = dict(self.model)
        if lost is not None and self.live(lost):
            follower.delete_job(lost)
            for level in LEVELS:
                del model[(lost, level)]
        self.follower = (follower.dump_snapshot(), model)

    @precondition(lambda self: self.follower is not None)
    @rule()
    def takeover(self):
        """Leader promotion: the endpoint adopts the follower's tables
        (an older config, or no entry at all, with no write naming it)."""
        snapshot, model = self.follower
        self.store.install_state(JobStore.load_snapshot(snapshot))
        self.model = dict(model)

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    @invariant()
    def stored_matches_model(self):
        if not self.model or not self.store.available:
            return
        for (job, level), (config, version) in self.model.items():
            stored = self.store.read_expected(job, level)
            assert stored.config == config
            assert stored.version == version

    @invariant()
    def merged_respects_precedence(self):
        if not self.model or not self.store.available:
            return
        for job in JOBS:
            if not self.live(job):
                continue
            merged = self.store.merged_expected(job)
            expected_value = None
            for level in ConfigLevel.in_precedence_order():
                config, __ = self.model[(job, level)]
                if "task_count" in config:
                    expected_value = config["task_count"]
            if expected_value is not None:
                assert merged["task_count"] == expected_value

    @invariant()
    def view_is_the_merged_config(self):
        """``view`` is ``merged_expected`` read through ``JobView`` — the
        same value for a live job, the same error otherwise. Checked
        after every step, so each step runs against held views."""
        for job in JOBS:
            try:
                merged = self.store.merged_expected(job)
            except TurbineError as error:
                assert not (self.live(job) and self.store.available)
                with pytest.raises(type(error), match=re.escape(str(error))):
                    self.store.view(job)
            else:
                assert self.store.view(job) == JobView.from_config(merged)
                assert self.store.view(job) is self.store.view(job)
                # A fresh dict: changing it, nested levels included,
                # changes nothing the store holds.
                again = self.store.merged_expected(job)
                merged["task_count"] = -1
                merged.setdefault("resources", {})["cpu"] = -1.0
                assert self.store.merged_expected(job) == again
                assert self.store.view(job) == JobView.from_config(again)
        # Nothing is held for a job the store does not have (a takeover
        # drops jobs without a notification naming them).
        assert set(self.store._merges) <= {j for j in JOBS if self.live(j)}

    @invariant()
    def config_converged_is_the_re_merge(self):
        """``config_converged`` is the oracle's whole-config verdict read
        the long way, or the same error; and it is pure: every held merge
        keeps its view, dict and stamp, so the next ``view`` and
        ``expected_for_sync`` answer as they would have."""
        held = {
            job: (merge, merge.view, merge.config, merge.synced)
            for job, merge in self.store._merges.items()
        }
        for job in JOBS:
            try:
                converged = not self.store.is_dirty(job) and not config_diff(
                    self.store.read_running(job).config,
                    self.store.merged_expected(job),
                )
            except TurbineError as error:
                with pytest.raises(type(error), match=re.escape(str(error))):
                    self.store.config_converged(job)
            else:
                assert self.store.config_converged(job) is converged
        assert self.store._merges.keys() == held.keys()
        for job, (merge, view, config, synced) in held.items():
            assert self.store._merges[job] is merge
            assert merge.view is view and merge.config is config
            assert merge.synced == synced


TestJobStoreMachine = JobStoreMachine.TestCase
TestJobStoreMachine.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
