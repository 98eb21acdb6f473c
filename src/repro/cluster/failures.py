"""Failure injection.

The paper's evaluation relies on induced failures: Fig. 7 manually triggers
fail-over on a few machines; section IV-C's protocol is exercised by host
loss and connection failures; storms (Fig. 9) disconnect a whole datacenter.
This module schedules those events on the simulation engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.cluster.tupperware import TupperwareCluster
from repro.sim.engine import Engine
from repro.types import HostId, Seconds


@dataclass
class FailurePlan:
    """A scripted host failure (and optional recovery)."""

    host_id: HostId
    fail_at: Seconds
    recover_at: Optional[Seconds] = None

    def __post_init__(self) -> None:
        if self.recover_at is not None and self.recover_at <= self.fail_at:
            raise ValueError("recover_at must be after fail_at")


@dataclass
class FailureRecord:
    """What the injector actually did (for assertions and reports)."""

    host_id: HostId
    time: Seconds
    kind: str  # "fail" | "recover"
    #: Which scenario injected the event; lets overlapping chaos
    #: scenarios stay distinguishable in ``repro timeline``.
    label: str = ""


class FailureInjector:
    """Schedules scripted host failures on the engine."""

    def __init__(self, engine: Engine, cluster: TupperwareCluster) -> None:
        self._engine = engine
        self._cluster = cluster
        self.history: List[FailureRecord] = []

    # ------------------------------------------------------------------
    # Scripted failures
    # ------------------------------------------------------------------
    def schedule(self, plan: FailurePlan, label: str = "scripted") -> None:
        """Arrange for ``plan`` to happen at its configured times."""
        self._engine.call_at(
            plan.fail_at, lambda: self._fail(plan.host_id, label)
        )
        if plan.recover_at is not None:
            self._engine.call_at(
                plan.recover_at, lambda: self._recover(plan.host_id, label)
            )

    # ------------------------------------------------------------------
    # Immediate failures (chaos scenarios inject through these so every
    # host event lands in ``history`` with its scenario label)
    # ------------------------------------------------------------------
    def fail_now(self, host_id: HostId, label: str = "") -> None:
        """Fail ``host_id`` right now, recording the event."""
        self._fail(host_id, label)

    def recover_now(self, host_id: HostId, label: str = "") -> None:
        """Recover ``host_id`` right now, recording the event."""
        self._recover(host_id, label)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _fail(self, host_id: HostId, label: str = "") -> None:
        if host_id not in self._cluster.hosts:
            return  # Host was decommissioned before the event fired.
        self._cluster.fail_host(host_id)
        self.history.append(
            FailureRecord(host_id, self._engine.now, "fail", label=label)
        )

    def _recover(self, host_id: HostId, label: str = "") -> None:
        if host_id not in self._cluster.hosts:
            return
        self._cluster.recover_host(host_id)
        self.history.append(
            FailureRecord(host_id, self._engine.now, "recover", label=label)
        )
