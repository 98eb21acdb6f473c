"""Batch-mode execution of a query over warehouse data.

The same validated/optimized stream graph that the Provision Service cuts
into streaming jobs can run in batch mode over historical partitions —
the paper's backfill path ("The batch mode is useful when processing
historical data"). Stages execute sequentially (a stage's input must be
fully materialized before a shuffle consumer starts, MapReduce-style);
within a stage, workers process partitions in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

from repro.provision.query import Query, QueryError
from repro.provision.service import ProvisionService, Stage
from repro.warehouse.tables import DataWarehouse

#: MB/s one batch worker processes through any stage.
RATE_PER_WORKER_MB = 8.0


@dataclass
class BatchStageResult:
    """Execution record of one batch stage."""

    stage_id: int
    input_mb: float
    output_mb: float
    duration_seconds: float


@dataclass
class BatchResult:
    """Execution record of a whole batch run."""

    query_name: str
    first_day: int
    last_day: int
    workers: int
    stages: List[BatchStageResult] = field(default_factory=list)

    @property
    def total_duration_seconds(self) -> float:
        return sum(stage.duration_seconds for stage in self.stages)

    @property
    def total_input_mb(self) -> float:
        return self.stages[0].input_mb if self.stages else 0.0

    @property
    def output_mb(self) -> float:
        return self.stages[-1].output_mb if self.stages else 0.0


class BatchRunner:
    """Plans and 'executes' a query over a warehouse date range.

    Execution is analytic: bytes flow through the stage pipeline with each
    stage's reduction ratio taken from the optimized IR's rate estimates,
    and stage duration is ``input / (workers · RATE_PER_WORKER_MB)``. That is
    exactly the level of fidelity the management layer needs to reason
    about backfills (how long, how much intermediate data).
    """

    def __init__(self, warehouse: DataWarehouse) -> None:
        self._warehouse = warehouse
        self._provisioner = ProvisionService()

    def run(
        self,
        query: Query,
        first_day: int,
        last_day: int,
        workers: int = 8,
    ) -> BatchResult:
        """Execute ``query`` over the inclusive day range."""
        if workers <= 0:
            raise QueryError(f"workers must be positive: {workers}")
        pipeline = self._provisioner.plan(query)
        result = BatchResult(
            query_name=query.name, first_day=first_day, last_day=last_day,
            workers=workers,
        )
        carried: float = 0.0
        for stage in pipeline.stages:
            input_mb = self._stage_input_mb(stage, first_day, last_day, carried)
            ratio = stage.reduction_ratio
            output_mb = input_mb * ratio
            duration = input_mb / (workers * RATE_PER_WORKER_MB)
            result.stages.append(
                BatchStageResult(
                    stage_id=stage.stage_id,
                    input_mb=input_mb,
                    output_mb=output_mb,
                    duration_seconds=duration,
                )
            )
            carried = output_mb
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _stage_input_mb(
        self, stage: Stage, first_day: int, last_day: int, carried: float
    ) -> float:
        """Warehouse partitions for source stages, the previous stage's
        output for shuffle consumers."""
        if any(node.kind == "source" for node in stage.nodes):
            table = self._warehouse.get_table(stage.input_category)
            return table.size_between(first_day, last_day)
        return carried
