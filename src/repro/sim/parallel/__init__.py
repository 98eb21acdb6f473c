"""The sharded parallel simulation substrate.

One Python event loop caps fleet size no matter how fast each hot path
gets. This package partitions the simulated fleet by the existing MD5
task-to-shard mapping (paper section IV-A1) into N independent event
engines — each with its own :class:`~repro.sim.engine.Engine`, a
``SeededRng.fork(f"partition-{i}")`` stream, and a task-runtime /
metric-store slice — synchronized at control-plane round barriers, and
optionally executed across cores via :mod:`multiprocessing` with pickled
per-round deltas.

The merge step keeps every export (fingerprint, timeline, SLO report,
deterministic telemetry, metric series) **byte-identical** to the
single-loop run. Two design rules make that provable:

* every observable random draw is keyed by a *stable entity label*
  (task id), never by the partition that happens to host the entity —
  the per-partition fork streams drive only partition-local concerns;
* every observable aggregate crosses the partition boundary as a
  fixed-point integer (micro-MB), so merge addition is associative and
  commutative, and the coordinator always reduces deltas in canonical
  (time, job, partition-independent) order.

See ``DESIGN.md`` ("Parallel substrate") for the full argument.
"""

from repro.sim.parallel.barrier import ControlPlane, ScaleAction
from repro.sim.parallel.fleet import (
    FleetJob,
    FleetSpec,
    PartitionRunner,
    RoundDelta,
    standard_fleet,
)
from repro.sim.parallel.merge import MergedRound, merge_deltas
from repro.sim.parallel.partition import (
    PartitionPlan,
    partition_for_shard,
    partition_for_task,
)
from repro.sim.parallel.runner import (
    ParallelResult,
    ParallelSimulation,
    run_fleet,
)

__all__ = [
    "ControlPlane",
    "FleetJob",
    "FleetSpec",
    "MergedRound",
    "ParallelResult",
    "ParallelSimulation",
    "PartitionPlan",
    "PartitionRunner",
    "RoundDelta",
    "ScaleAction",
    "merge_deltas",
    "partition_for_shard",
    "partition_for_task",
    "run_fleet",
    "standard_fleet",
]
