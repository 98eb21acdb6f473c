"""Shared value types and type aliases used across the Turbine layers.

Keeping these in one module avoids circular imports between the job, task,
and resource management packages, which all refer to the same identifiers.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import reduce
from operator import add
from typing import Iterable

#: Simulation time, in seconds since the start of the run.
Seconds = float

#: Identifier of a job (what to run). Jobs are named by their pipeline.
JobId = str

#: Identifier of a single task of a job, e.g. ``"scuba/ads_metrics:3"``.
TaskId = str

#: Identifier of a shard — the unit of placement and movement.
ShardId = str

#: Identifier of a Turbine container (the parent container on a host).
ContainerId = str

#: Identifier of a physical host in the cluster.
HostId = str


class JobState(enum.Enum):
    """Lifecycle state of a job in the Job Store."""

    #: Provisioned and expected to be running.
    RUNNING = "running"
    #: Deliberately stopped (e.g. by an oncall or the capacity manager).
    STOPPED = "stopped"
    #: Failed synchronization repeatedly; awaiting human investigation.
    QUARANTINED = "quarantined"
    #: Removed; retained only for audit.
    DELETED = "deleted"


class TaskState(enum.Enum):
    """Lifecycle state of a task instance inside a Turbine container."""

    STARTING = "starting"
    RUNNING = "running"
    STOPPING = "stopping"
    STOPPED = "stopped"
    CRASHED = "crashed"
    #: Passive hot-standby replica: placed and warm (tails the primary's
    #: checkpoint stream) but not processing; promoted to RUNNING when the
    #: primary's container is lost.
    STANDBY = "standby"


class Priority(enum.IntEnum):
    """Business priority of a job; higher values preempt lower ones.

    The Capacity Manager stops lower priority jobs as a last resort to
    unblock higher priority ones (paper section V-F).
    """

    LOW = 0
    NORMAL = 1
    HIGH = 2
    CRITICAL = 3


def sum_in_order(values: Iterable[float]) -> float:
    """``sum(values)`` adding left to right into one double from integer
    ``0``, on every interpreter.

    CPython 3.12 compensates a float ``sum()`` (Neumaier), so it can end
    a few ulps away from 3.9 – 3.11, which add in order. A sum that
    decides something or lands in an export goes through here.
    """
    return reduce(add, values, 0)


class Version:
    """A monotone change counter for one input of a reconcile loop.

    Every writer of the input calls :meth:`bump` where it writes; a reader
    keeps the ``value`` it last acted on, and while the two are equal it
    knows nothing it reads there has changed.
    """

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def bump(self) -> None:
        self.value += 1


@dataclass(frozen=True)
class IncidentRecord:
    """One incident-worthy event, as a plane keeps it in its ``events``
    list for the operator timeline (:mod:`repro.ops.timeline`, which
    labels it with the plane it came from)."""

    time: Seconds
    kind: str  # short machine-readable tag, e.g. "standby-promote"
    detail: str


@dataclass(frozen=True)
class SLO:
    """Service level objective for a streaming job.

    Attributes:
        max_lag_seconds: maximum tolerated end-to-end processing lag. The
            paper's motivating example is a 90-second guarantee.
        recovery_seconds: target time to drain a backlog after an incident
            (used by the scaler's equation 3 to budget recovery CPU).
    """

    max_lag_seconds: float = 90.0
    recovery_seconds: float = 3600.0

    def __post_init__(self) -> None:
        if self.max_lag_seconds <= 0:
            raise ValueError("max_lag_seconds must be positive")
        if self.recovery_seconds <= 0:
            raise ValueError("recovery_seconds must be positive")
