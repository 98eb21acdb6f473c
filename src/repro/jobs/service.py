"""The Job Service: the write API in front of the Job Store.

"The Job Service [is] a service to guarantee job changes are committed to
the Job Store atomically ... The Job Service also guarantees
read-modify-write consistency when updating the same expected
configuration" (paper sections III and III-A).

Writers never touch the store directly: the provisioner writes the
PROVISIONER level, the auto scaler the SCALER level, oncalls the ONCALL
level — each through :meth:`update`, which retries the optimistic CAS loop
on conflicts. Isolation between components falls out of the level
hierarchy: no writer needs to know about any other.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.errors import DegradedModeError, JobStoreError, VersionConflictError
from repro.jobs.configs import Config, ConfigLevel
from repro.jobs.model import JobSpec, JobView, base_config
from repro.jobs.schema import validate_typed
from repro.jobs.store import JobStore
from repro.obs.trace import (
    NULL_TRACER,
    SLOT_CONFIG,
    SLOT_WRITE_ORIGIN,
    Tracer,
)
from repro.types import JobId, JobState

#: How many CAS retries :meth:`update` attempts before giving up. Conflicts
#: are transient (another writer won the race), so a handful of retries is
#: always enough in practice.
MAX_RETRIES = 16


class JobService:
    """Validated, serialized access to the Job Store."""

    def __init__(
        self, store: JobStore, tracer: Optional[Tracer] = None
    ) -> None:
        self._store = store
        self._tracer = tracer or NULL_TRACER
        #: When False, new jobs are rejected — the degraded mode in which
        #: Turbine "keep[s] jobs running but not admitting new jobs"
        #: (paper section II).
        self.admitting = True

    @property
    def store(self) -> JobStore:
        """The underlying store (read-only use by other services)."""
        return self._store

    # ------------------------------------------------------------------
    # Provisioning
    # ------------------------------------------------------------------
    def provision(self, spec: JobSpec) -> None:
        """Admit a new job: create it and write base + provisioner levels."""
        if not self.admitting:
            raise DegradedModeError(
                "job admission is disabled (degraded mode)"
            )
        self._store.create_job(spec.job_id)
        provision_event = self._tracer.record(
            "job-service", "provision", job_id=spec.job_id,
            task_count=spec.task_count,
        )
        self._tracer.set_context(
            spec.job_id, SLOT_WRITE_ORIGIN, provision_event
        )
        self.update(spec.job_id, ConfigLevel.BASE, lambda __: base_config())
        self._tracer.set_context(
            spec.job_id, SLOT_WRITE_ORIGIN, provision_event
        )
        self.update(
            spec.job_id,
            ConfigLevel.PROVISIONER,
            lambda __: spec.to_provisioner_config(),
        )

    def deprovision(self, job_id: JobId) -> None:
        """Remove a job from management."""
        self._store.delete_job(job_id)

    # ------------------------------------------------------------------
    # Updates
    # ------------------------------------------------------------------
    def update(
        self,
        job_id: JobId,
        level: ConfigLevel,
        modify: Callable[[Config], Config],
    ) -> Config:
        """Read-modify-write one expected level with CAS retries.

        ``modify`` receives a deep copy of the current level config and
        returns the new config (it may mutate and return its argument). On
        a version conflict the cycle re-reads and re-applies ``modify``, so
        concurrent writers to the same level serialize cleanly.
        Returns the config that was committed.

        Every committed write records a ``config-write`` trace event,
        parented onto whatever decision caused it (the writer publishes
        its event in the write-origin slot beforehand), and publishes that
        event for the State Syncer — so the sync round that realizes the
        change links back to the decision that requested it.
        """
        last_conflict: Optional[VersionConflictError] = None
        for __ in range(MAX_RETRIES):
            current = self._store.read_expected(job_id, level)
            new_config = modify(current.config)
            if new_config is None:
                raise JobStoreError(
                    f"modify callback returned None for {job_id}/{level.name}"
                )
            # Thrift-equivalent type checking at the write boundary.
            validate_typed(new_config)
            try:
                version = self._store.write_expected(
                    job_id, level, new_config, current.version
                )
                if self._tracer.enabled:
                    self._trace_write(job_id, level, new_config, version)
                return new_config
            except VersionConflictError as conflict:
                last_conflict = conflict
        raise JobStoreError(
            f"update of {job_id}/{level.name} failed after {MAX_RETRIES} "
            f"retries: {last_conflict}"
        )

    def _trace_write(
        self, job_id: JobId, level: ConfigLevel, config: Config, version: int
    ) -> None:
        parent = self._tracer.claim_context(job_id, SLOT_WRITE_ORIGIN)
        event = self._tracer.record(
            "job-store", "config-write", job_id=job_id, parent=parent,
            level=level.name, version=version,
            keys=sorted(config),
        )
        self._tracer.set_context(job_id, SLOT_CONFIG, event)

    def patch(
        self, job_id: JobId, level: ConfigLevel, changes: Config
    ) -> Config:
        """Shallow-merge ``changes`` into one expected level."""
        def apply(config: Config) -> Config:
            config.update(changes)
            return config

        return self.update(job_id, level, apply)

    def clear_level(self, job_id: JobId, level: ConfigLevel) -> None:
        """Empty one expected level (e.g. lifting an oncall override)."""
        self.update(job_id, level, lambda __: {})

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def expected_config(self, job_id: JobId) -> Config:
        """The merged expected configuration (consistent view)."""
        return self._store.merged_expected(job_id)

    def view(self, job_id: JobId) -> JobView:
        """The merged expected configuration as a typed, immutable view."""
        return self._store.view(job_id)

    def job_ids(self) -> "list[JobId]":
        """All managed jobs (sorted)."""
        return self._store.job_ids()

    def active_job_ids(self) -> "list[JobId]":
        """Jobs that should have tasks running (not stopped/quarantined)."""
        return [
            job_id
            for job_id in self._store.job_ids()
            if self._store.state_of(job_id) == JobState.RUNNING
        ]
