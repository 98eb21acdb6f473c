"""The Provision Service: optimized IR → Turbine jobs.

"A stream pipeline may contain multiple jobs, for example aggregation
after data shuffling." (paper section II). The service cuts the optimized
stream graph at shuffle boundaries into *stages*; each stage becomes one
Turbine job, and every cut edge becomes an intermediate Scribe category
(jobs never talk to each other directly).

Simplification vs. production: a Turbine job here reads a single input
category, so a join stage's two upstream stages write into one shared
keyed intermediate category (a unioned, tagged stream) rather than two.
This preserves the property the control plane cares about — stages
decouple through the persistent bus — while keeping the job model simple.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.jobs.model import JobSpec
from repro.provision.ir import IRNode, StreamGraph, compile_query
from repro.provision.optimizer import optimize
from repro.provision.query import Query
from repro.types import sum_in_order

#: Engine throughput assumed when sizing new stages (MB/s per thread),
#: refined later at runtime by the scaler's pattern analyzer.
RATE_PER_THREAD = 2.0

#: Target utilization of a task at provisioning time (leave headroom).
TARGET_UTILIZATION = 0.7


@dataclass
class Stage:
    """A maximal shuffle-free subgraph — one Turbine job."""

    stage_id: int
    nodes: List[IRNode] = field(default_factory=list)
    input_category: str = ""
    output_category: Optional[str] = None
    input_rate_mb: float = 0.0

    @property
    def stateful(self) -> bool:
        return any(node.stateful for node in self.nodes)

    @property
    def key_cardinality(self) -> int:
        return sum(
            getattr(node.op, "key_cardinality", 0)
            for node in self.nodes
            if node.stateful
        )

    @property
    def reduction_ratio(self) -> float:
        """Output bytes per input byte through this stage's operators."""
        ratio = 1.0
        for node in self.nodes:
            if node.kind == "filter":
                ratio *= node.op.selectivity
            elif node.kind == "project":
                parent_width = max(
                    1, len(node.op.parent.output_schema().fields)
                )
                ratio *= len(node.op.columns) / parent_width
            elif node.kind == "aggregate":
                ratio *= 0.1
            elif node.kind == "window":
                ratio *= 0.3
        return ratio


@dataclass
class ProvisionedPipeline:
    """The result of provisioning one query."""

    query_name: str
    stages: List[Stage]
    job_specs: List[JobSpec]
    intermediate_categories: List[str]

    @property
    def num_jobs(self) -> int:
        return len(self.job_specs)


class ProvisionService:
    """Validates, compiles, optimizes, and provisions queries."""

    # ------------------------------------------------------------------
    # Planning (pure)
    # ------------------------------------------------------------------
    def plan(self, query: Query, optimize_ir: bool = True) -> ProvisionedPipeline:
        """Full pipeline: validate → compile → optimize → cut → size.

        ``optimize_ir=False`` skips the rewrite rules (for ablations).
        """
        graph = compile_query(query)
        if optimize_ir:
            graph = optimize(graph)
        stages = self._cut_stages(graph)
        specs = [self._size_stage(query.name, stage) for stage in stages]
        intermediates = [
            stage.input_category
            for stage in stages
            if stage.input_category.startswith(f"{query.name}/stage-")
        ]
        return ProvisionedPipeline(
            query_name=query.name,
            stages=stages,
            job_specs=specs,
            intermediate_categories=intermediates,
        )

    # ------------------------------------------------------------------
    # Deployment (side-effecting)
    # ------------------------------------------------------------------
    def provision(
        self, query: Query, platform, optimize_ir: bool = True
    ) -> ProvisionedPipeline:
        """Plan the query and provision every stage job on a platform.

        ``platform`` is a :class:`repro.platform.Turbine`; intermediate
        categories are created with a partition count matching the widest
        consumer.
        """
        pipeline = self.plan(query, optimize_ir=optimize_ir)
        for spec in pipeline.job_specs:
            partitions = max(32, spec.task_count_limit)
            platform.provision(spec, partitions=partitions)
        return pipeline

    # ------------------------------------------------------------------
    # Stage cutting
    # ------------------------------------------------------------------
    def _cut_stages(self, graph: StreamGraph) -> List[Stage]:
        """Assign every non-shuffle node to a stage.

        A node joins its parent's stage unless the edge comes out of a
        shuffle (or merges two different stages, as at a join), in which
        case a new stage starts and reads the shuffle's intermediate
        category.
        """
        stage_of: Dict[int, Stage] = {}
        stages: List[Stage] = []

        def new_stage() -> Stage:
            stage = Stage(stage_id=len(stages))
            stages.append(stage)
            return stage

        for node in graph.topological():
            if node.kind == "shuffle":
                continue  # boundaries, not members
            parent_stages: List[Stage] = []
            crosses_shuffle = False
            for parent in node.inputs:
                if parent.kind == "shuffle":
                    crosses_shuffle = True
                elif parent.node_id in stage_of:
                    parent_stages.append(stage_of[parent.node_id])
            distinct = {id(s) for s in parent_stages}
            if node.kind == "source":
                stage = new_stage()
                stage.input_category = node.op.category
                stage.input_rate_mb = node.op.rate_mb
            elif crosses_shuffle or len(distinct) > 1:
                stage = new_stage()
                stage.input_category = (
                    f"{graph.query_name}/stage-{stage.stage_id}-input"
                )
                stage.input_rate_mb = sum_in_order(
                    parent.rate_mb for parent in node.inputs
                )
                # Upstream stages write into the new intermediate.
                for parent in node.inputs:
                    upstream = (
                        stage_of.get(parent.inputs[0].node_id)
                        if parent.kind == "shuffle" and parent.inputs
                        else stage_of.get(parent.node_id)
                    )
                    if upstream is not None and upstream.output_category is None:
                        upstream.output_category = stage.input_category
            else:
                stage = parent_stages[0]
            stage.nodes.append(node)
            stage_of[node.node_id] = stage
            if node.kind == "sink":
                stage.output_category = node.op.category
        return stages

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------
    def _size_stage(self, query_name: str, stage: Stage) -> JobSpec:
        """Initial sizing from the rate estimates.

        The Auto Scaler owns sizing after launch; the provisioner only
        needs to be in the right ballpark (the staging-period bootstrap).
        """
        capacity_per_task = RATE_PER_THREAD * TARGET_UTILIZATION
        task_count = max(1, math.ceil(stage.input_rate_mb / capacity_per_task))
        return JobSpec(
            job_id=f"{query_name}/stage-{stage.stage_id}",
            input_category=stage.input_category,
            task_count=min(task_count, 32),
            threads_per_task=1,
            rate_per_thread_mb=RATE_PER_THREAD,
            stateful=stage.stateful,
            state_key_cardinality=stage.key_cardinality,
            output_category=stage.output_category or "",
            output_ratio=stage.reduction_ratio,
        )
