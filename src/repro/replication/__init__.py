"""Replicated control plane: Job Store state-machine replication.

Turbine keeps its source of truth in a replicated store; this package
reproduces that property for the simulation's Job Store. Mutations are
serialized as commands onto a dedicated Scribe command log and applied
in log order by every replica, so each replica is a deterministic state
machine over the same input stream (see PAPERS.md, "stream-based
state-machine replication"). A sim-time lease elects the leader; on
leader loss a follower is caught up to the log head and promoted in
place of the endpoint, restoring write availability in seconds instead
of the 40-second single-instance reboot clock.
"""

from repro.replication.commands import (
    COMMAND_OPS,
    Command,
    ReplicationError,
    apply_command,
    decode_command,
    encode_command,
)
from repro.replication.group import (
    CATCHUP_INTERVAL,
    COMMAND_LOG_NAME,
    DEFAULT_REPLICAS,
    FOLLOWER,
    HEARTBEAT_INTERVAL,
    LEADER,
    LEASE_TIMEOUT,
    Lease,
    Replica,
    ReplicationGroup,
)

__all__ = [
    "COMMAND_OPS",
    "Command",
    "ReplicationError",
    "apply_command",
    "decode_command",
    "encode_command",
    "CATCHUP_INTERVAL",
    "COMMAND_LOG_NAME",
    "DEFAULT_REPLICAS",
    "FOLLOWER",
    "HEARTBEAT_INTERVAL",
    "LEADER",
    "LEASE_TIMEOUT",
    "Lease",
    "Replica",
    "ReplicationGroup",
]
