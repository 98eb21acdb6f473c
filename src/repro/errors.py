"""Exception hierarchy for the Turbine reproduction.

Every error raised by the library derives from :class:`TurbineError` so
callers can catch library failures with a single ``except`` clause while
letting programming errors (``TypeError`` etc.) propagate.
"""

from __future__ import annotations


class TurbineError(Exception):
    """Base class for all errors raised by this library."""


class SimulationError(TurbineError):
    """The discrete-event engine was used incorrectly.

    Examples: scheduling an event in the past, stepping a finished engine.
    """


class ClusterError(TurbineError):
    """A cluster substrate operation failed (unknown host, over-allocation)."""


class ScribeError(TurbineError):
    """A message-bus operation failed (unknown category, bad offset)."""


class JobStoreError(TurbineError):
    """A job store operation failed (unknown job, malformed config)."""


class VersionConflictError(JobStoreError):
    """Optimistic concurrency control rejected a write.

    Raised when a read-modify-write cycle observes that the expected-config
    version changed between the read and the write (paper section III-A).
    Callers are expected to re-read and retry.
    """


class SyncError(TurbineError):
    """A State Syncer execution plan failed part-way through.

    The syncer aborts the plan and re-schedules it on the next round
    (paper section III-B); repeated failures quarantine the job.
    """


class PlacementError(TurbineError):
    """The shard placement algorithm could not satisfy its constraints."""


class CapacityError(TurbineError):
    """The cluster does not have the capacity for a requested allocation."""


class ScalerError(TurbineError):
    """The auto scaler was asked to produce an invalid plan."""


class DegradedModeError(TurbineError):
    """An operation is unavailable because a dependency is degraded.

    Turbine deliberately keeps running in degraded mode when individual
    components fail (paper section II); operations that *require* the failed
    component raise this error instead of blocking.
    """


class ServiceUnavailableError(DegradedModeError):
    """A control-plane service announced it is down (an availability
    window, not a connection failure).

    The distinction matters for the section IV-C protocol: a Task Manager
    that cannot *reach* the Shard Manager must assume split-brain and
    reboot after its 40-second timeout, but a Shard Manager that answers
    "I am unavailable" is a service-level outage — every container is
    equally affected, no fail-over can happen, and the correct degraded
    mode is "keep your shards and keep processing".
    """
