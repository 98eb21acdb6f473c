"""Job Management layer — *what to run*.

Implements the paper's section III: the Job Store with its hierarchical
expected-configuration tables (Table I), the Algorithm 1 JSON merge, the
Job Service's versioned read-modify-write updates, and the State Syncer
that drives running state toward expected state with ACIDF guarantees
(atomic, consistent, isolated, durable, fault-tolerant).
"""

from repro.jobs.configs import (
    ConfigLevel,
    layer_configs,
    merge_levels,
    validate_config,
)
from repro.jobs.model import JobSpec, JobView
from repro.jobs.plan import Action, ExecutionPlan, TaskActuator
from repro.jobs.service import JobService
from repro.jobs.store import ChangeCursor, JobStore, VersionedConfig
from repro.jobs.syncer import StateSyncer, SyncReport

__all__ = [
    "ChangeCursor",
    "ConfigLevel",
    "layer_configs",
    "merge_levels",
    "validate_config",
    "JobSpec",
    "JobView",
    "JobStore",
    "VersionedConfig",
    "JobService",
    "Action",
    "ExecutionPlan",
    "TaskActuator",
    "StateSyncer",
    "SyncReport",
]
