"""Task Management layer — *where to run*.

Implements the paper's section IV: the Task Service that turns job configs
into task specs, the per-container local Task Managers with their MD5
task-to-shard mapping, the Shard Manager (Facebook's Slicer-like service)
with its ADD_SHARD/DROP_SHARD movement protocol and bi-directional
heartbeat failover, and the bin-packing load balancer that keeps every
container within a utilization band of the tier average.
"""

from repro.tasks.actuator import TurbineActuator
from repro.tasks.balancer import (
    AssignmentChange,
    compute_assignment,
)
from repro.tasks.manager import TaskManager
from repro.tasks.runtime import RunningTask
from repro.tasks.service import TaskService
from repro.tasks.shard import shard_id_for_task
from repro.tasks.shard_manager import ShardManager
from repro.tasks.spec import TaskSpec
from repro.tasks.stats import JobStatsCollector

__all__ = [
    "TaskSpec",
    "TaskService",
    "TaskManager",
    "ShardManager",
    "RunningTask",
    "TurbineActuator",
    "JobStatsCollector",
    "shard_id_for_task",
    "compute_assignment",
    "AssignmentChange",
]
