"""State-machine replication of the Job Store over a Scribe command log.

The Job Store is a deterministic state machine: its visible state is a
pure function of the mutation sequence it executed. Replication
therefore follows the stream-based SMR recipe (PAPERS.md): the serving
store (the *endpoint* — the object every client holds) taps every
successful mutation into a dedicated Scribe :class:`CommandLog`, and
each follower replica applies the log in order into its own shadow
store. Because the leader is the log's sole appender and applies
synchronously, log order equals execution order, and every replica at
log position *i* holds exactly the state the endpoint held after its
*i*-th mutation — the property the log-equivalence suite proves byte
for byte.

Roles and failover:

* **Leader** — the replica whose state *is* the endpoint. It renews a
  sim-time lease every ``HEARTBEAT_INTERVAL``; clients keep writing
  through the endpoint exactly as they would to a singleton store, so
  with no faults a replicated platform is byte-identical to an
  unreplicated one (the golden transparency suite).
* **Followers** — poll the log every ``CATCHUP_INTERVAL`` and apply new
  commands to their shadow stores. A follower whose next index fell
  behind the log's retention horizon — or that just (re)joined with an
  empty disk — installs a snapshot from the leader first, then tails
  the log.
* **Failover** — when the leader dies the endpoint becomes unavailable
  (clients degrade exactly as during a store outage: the State Syncer
  skips rounds on last-known-good state). Once the lease expires, the
  group deterministically elects the live follower with the highest
  applied index (ties broken by lowest replica id), catches it up to
  the log head, and installs its state into the endpoint in place.
  Write availability returns after roughly ``LEASE_TIMEOUT`` — seconds,
  versus the 40-second reboot clock a singleton restart pays — and no
  committed mutation is lost or re-applied, because the promoted state
  is the log-applied state.

Everything runs on the simulation engine with no randomness, so
elections and catch-up are deterministic per seed. In fault-free
operation the group emits no events and perturbs no shared state;
:attr:`events` only ever records failovers, rejoins, and snapshot
installs, which is what keeps replication-on/off timelines identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from repro.jobs.store import JobStore
from repro.obs.bounded import BoundedList
from repro.obs.telemetry import NULL_TELEMETRY, Telemetry
from repro.replication.commands import (
    ReplicationError,
    apply_command,
    decode_command,
    encode_command,
)
from repro.scribe.bus import ScribeBus
from repro.scribe.log import RetentionError
from repro.sim.engine import Engine
from repro.types import IncidentRecord, Seconds

#: Scribe log carrying the Job Store's serialized mutations.
COMMAND_LOG_NAME = "turbine.jobstore-commands"

#: Default replica-set size (leader + two followers).
DEFAULT_REPLICAS = 3

#: How often the leader renews its lease (and expiry is checked).
HEARTBEAT_INTERVAL: Seconds = 3.0

#: Lease lifetime per renewal; failover starts when it lapses.
LEASE_TIMEOUT: Seconds = 10.0

#: How often followers poll the command log.
CATCHUP_INTERVAL: Seconds = 5.0

#: Retained replication events (failovers are rare; this is ample).
EVENT_RETENTION = 4096

#: Replica roles.
LEADER = "leader"
FOLLOWER = "follower"


@dataclass
class Lease:
    """The leadership lease: who serves writes, and until when."""

    holder: Optional[str]
    expires_at: Seconds
    term: int = 1


@dataclass
class Replica:
    """One member of the replica set."""

    replica_id: str
    role: str = FOLLOWER
    #: Shadow store (followers only; the leader's state is the endpoint).
    store: Optional[JobStore] = None
    #: Next log index to apply; ``None`` = fresh process, must install a
    #: snapshot before tailing the log.
    applied: Optional[int] = None
    alive: bool = True

    def __repr__(self) -> str:
        state = "up" if self.alive else "down"
        return (
            f"Replica({self.replica_id!r}, {self.role}, {state}, "
            f"applied={self.applied})"
        )


class ReplicationGroup:
    """Replicates one Job Store endpoint over a Scribe command log.

    A platform attaches one group for its life (``Turbine._attach``
    refuses a second before building it), because the constructor takes
    the endpoint's command sink.
    """

    def __init__(
        self,
        engine: Engine,
        endpoint: JobStore,
        scribe: ScribeBus,
        replicas: int = DEFAULT_REPLICAS,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        if replicas < 2:
            raise ReplicationError(
                f"a replica set needs at least 2 members: {replicas}"
            )
        self._engine = engine
        self._endpoint = endpoint
        self._telemetry = telemetry or NULL_TELEMETRY
        #: The replicated command log (a dedicated Scribe log partition).
        self.log = scribe.ensure_log(COMMAND_LOG_NAME)
        #: True when the log covers the store's entire history (empty
        #: store and empty log at attach). A genesis log lets a replica
        #: with no state rebuild by full replay, without a live leader to
        #: serve a snapshot — the recovery path out of a total outage.
        self._genesis_log = (
            self.log.head_index == 0 and not endpoint.job_ids()
        )
        # Bootstrap: replica-0 leads; followers start from a snapshot of
        # the endpoint taken now (mutations that predate attachment are
        # not in the log, exactly like a production log enabled mid-life).
        self.replicas: Dict[str, Replica] = {}
        bootstrap = endpoint.dump_snapshot()
        for index in range(replicas):
            replica_id = f"replica-{index}"
            if index == 0:
                replica = Replica(replica_id, role=LEADER)
            else:
                replica = Replica(
                    replica_id,
                    role=FOLLOWER,
                    store=JobStore.load_snapshot(bootstrap),
                    applied=self.log.head_index,
                )
            self.replicas[replica_id] = replica
        self.leader_id: Optional[str] = "replica-0"
        self.lease = Lease(
            holder="replica-0", expires_at=engine.now + LEASE_TIMEOUT
        )
        #: Failover/rejoin/snapshot incidents (timeline source
        #: ``replication``); empty for a fault-free run by design.
        self.events: List[IncidentRecord] = BoundedList(
            maxlen=EVENT_RETENTION
        )
        #: Completed failovers as ``(promoted_at, leaderless_seconds)``.
        self.failovers: List[tuple] = []
        self._leader_lost_at: Optional[Seconds] = None
        self._lease_timer = None
        self._catchup_timer = None
        endpoint.set_command_sink(self._on_command)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm the lease and catch-up timers."""
        if self._lease_timer is None:
            self._lease_timer = self._engine.every(
                HEARTBEAT_INTERVAL, self._lease_tick,
                name="replication-lease",
            )
        if self._catchup_timer is None:
            self._catchup_timer = self._engine.every(
                CATCHUP_INTERVAL, self._catchup_tick,
                name="replication-catchup",
            )

    # ------------------------------------------------------------------
    # Command tap (endpoint → log)
    # ------------------------------------------------------------------
    def _on_command(self, op: str, args: Dict[str, Any]) -> None:
        self.log.append(encode_command(op, args))
        self._telemetry.inc("repl.commands_appended")

    # ------------------------------------------------------------------
    # Lease and election
    # ------------------------------------------------------------------
    def _lease_tick(self) -> None:
        now = self._engine.now
        leader = (
            self.replicas[self.leader_id]
            if self.leader_id is not None
            else None
        )
        if leader is not None and leader.alive:
            self.lease.holder = leader.replica_id
            self.lease.expires_at = now + LEASE_TIMEOUT
            self._telemetry.inc("repl.heartbeats")
        elif now >= self.lease.expires_at:
            self._elect()

    def _elect(self) -> None:
        """Deterministic election among catch-up-capable live followers.

        The winner is the follower with the highest applied index (most
        caught up ⇒ shortest promotion), ties broken by lowest replica
        id — a pure function of visible state, so same-seed runs elect
        the same leader at the same tick.
        """
        candidates = [
            replica
            for replica in self.replicas.values()
            if replica.alive
            and replica.role == FOLLOWER
            and replica.applied is not None
            and replica.applied >= self.log.first_index
        ]
        if not candidates:
            self._telemetry.inc("repl.elections_stalled")
            return
        winner = min(
            candidates, key=lambda r: (-(r.applied or 0), r.replica_id)
        )
        self.lease.term += 1
        self._telemetry.inc("repl.elections")
        self._promote(winner)

    def _promote(self, replica: Replica) -> None:
        """Catch a follower up to the log head and make it the endpoint."""
        assert replica.store is not None and replica.applied is not None
        self._apply_available(replica)
        if replica.applied < self.log.head_index:  # pragma: no cover
            raise ReplicationError(
                f"{replica.replica_id} could not reach the log head "
                f"({replica.applied} < {self.log.head_index})"
            )
        now = self._engine.now
        self._endpoint.install_state(replica.store)
        self._endpoint.recover()
        replica.role = LEADER
        replica.store = None
        replica.applied = None
        self.leader_id = replica.replica_id
        self.lease.holder = replica.replica_id
        self.lease.expires_at = now + LEASE_TIMEOUT
        leaderless = (
            now - self._leader_lost_at
            if self._leader_lost_at is not None
            else 0.0
        )
        self._leader_lost_at = None
        self.failovers.append((now, leaderless))
        self._telemetry.inc("repl.promotions")
        self._telemetry.observe("repl.failover_seconds", leaderless)
        self._record(
            "leader-elected",
            f"{replica.replica_id} term {self.lease.term} "
            f"(leaderless {leaderless:g}s)",
        )

    # ------------------------------------------------------------------
    # Follower catch-up and snapshot transfer
    # ------------------------------------------------------------------
    def _catchup_tick(self) -> None:
        for replica_id in sorted(self.replicas):
            replica = self.replicas[replica_id]
            if replica.alive and replica.role == FOLLOWER:
                self._catch_up(replica)

    def _catch_up(self, replica: Replica) -> None:
        if replica.applied is None or replica.applied < self.log.first_index:
            self._install_snapshot(replica)
            return
        self._apply_available(replica)

    def _apply_available(self, replica: Replica) -> None:
        assert replica.store is not None and replica.applied is not None
        try:
            records = self.log.read_from(replica.applied)
        except RetentionError:
            # The horizon passed between ticks; snapshot next round.
            replica.applied = None
            return
        for index, payload in records:
            apply_command(replica.store, decode_command(payload))
            replica.applied = index + 1
            self._telemetry.inc("repl.commands_applied")

    def _install_snapshot(self, replica: Replica) -> None:
        """Full state transfer from the leader, then tail the log.

        Only the leader can serve a snapshot (its state is the endpoint
        and is exactly at the log head); while the group is leaderless a
        lagging replica simply waits.
        """
        leader = (
            self.replicas[self.leader_id]
            if self.leader_id is not None
            else None
        )
        if leader is None or not leader.alive or not self.log.online:
            return
        snapshot_index = self.log.head_index
        replica.store = JobStore.load_snapshot(self._endpoint.dump_snapshot())
        replica.applied = snapshot_index
        self._telemetry.inc("repl.snapshot_installs")
        self._record(
            "snapshot-install",
            f"{replica.replica_id} at log index {snapshot_index}",
        )

    # ------------------------------------------------------------------
    # Chaos hooks
    # ------------------------------------------------------------------
    def crash(self, target: str = "leader") -> str:
        """Kill one replica (``"leader"`` resolves to the current one).

        A dead leader takes endpoint availability with it — clients see
        a store outage until the lease lapses and a follower promotes.
        Returns the resolved replica id so the chaos engine can restart
        the same process later.
        """
        replica_id = (
            self.leader_id if target in ("", "leader") else target
        )
        if replica_id is None:
            raise ReplicationError("no leader to crash")
        try:
            replica = self.replicas[replica_id]
        except KeyError:
            raise ReplicationError(f"unknown replica {replica_id}") from None
        if not replica.alive:
            return replica_id
        replica.alive = False
        replica.store = None
        replica.applied = None
        self._telemetry.inc("repl.replica_crashes")
        if replica_id == self.leader_id:
            self.leader_id = None
            self._leader_lost_at = self._engine.now
            self._endpoint.fail()
            self._record(
                "leader-lost", f"{replica_id} term {self.lease.term}"
            )
        else:
            replica.role = FOLLOWER
            self._record("replica-down", replica_id)
        return replica_id

    def restart(self, replica_id: str) -> None:
        """Rejoin a crashed replica as a fresh follower.

        The process lost its disk: it comes back with no state, which
        routes it through snapshot transfer on the next catch-up tick —
        unless the log covers the store's entire history, in which case
        full replay from index 0 rebuilds it with no leader involved
        (the only way out of a total replica-set outage).
        """
        try:
            replica = self.replicas[replica_id]
        except KeyError:
            raise ReplicationError(f"unknown replica {replica_id}") from None
        if replica.alive:
            return
        replica.alive = True
        replica.role = FOLLOWER
        replica.store = JobStore()
        replica.applied = 0 if self._genesis_log else None
        self._telemetry.inc("repl.replica_restarts")
        self._record("replica-rejoin", replica_id)

    def trim_log(self) -> int:
        """Advance the retention horizon to the log head (chaos hook:
        "the data a lagging replica still needed has aged out")."""
        dropped = self.log.trim(self.log.head_index)
        self._telemetry.inc("repl.log_trims")
        return dropped

    # ------------------------------------------------------------------
    # Convergence view
    # ------------------------------------------------------------------
    @property
    def has_leader(self) -> bool:
        """Whether a live leader currently serves the endpoint."""
        return (
            self.leader_id is not None
            and self.replicas[self.leader_id].alive
        )

    def lagging_replicas(self) -> List[str]:
        """Live followers not yet at the log head (catch-up in flight).

        Dead replicas are *not* listed: a crashed process is an open
        fault, not a replica in catch-up, and must not hold the
        convergence verdict hostage while its fault window is open.
        """
        head = self.log.head_index
        lagging = []
        for replica_id in sorted(self.replicas):
            replica = self.replicas[replica_id]
            if replica.alive and replica.role == FOLLOWER:
                if replica.applied is None or replica.applied < head:
                    lagging.append(replica_id)
        return lagging

    @property
    def in_sync(self) -> bool:
        """Leader present and every live follower at the log head."""
        return self.has_leader and not self.lagging_replicas()

    def replica_snapshot(self, replica_id: str) -> str:
        """One replica's state as a snapshot (the endpoint's for the
        leader); the proof-suite primitive for byte-identity checks."""
        replica = self.replicas[replica_id]
        if replica.role == LEADER:
            return self._endpoint.dump_snapshot()
        if replica.store is None:
            raise ReplicationError(f"{replica_id} holds no state")
        return replica.store.dump_snapshot()

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def _record(self, kind: str, detail: str) -> None:
        self.events.append(
            IncidentRecord(self._engine.now, kind, detail)
        )

    def __repr__(self) -> str:
        up = sum(1 for replica in self.replicas.values() if replica.alive)
        return (
            f"ReplicationGroup(leader={self.leader_id}, "
            f"replicas={up}/{len(self.replicas)} up, "
            f"log_head={self.log.head_index})"
        )
