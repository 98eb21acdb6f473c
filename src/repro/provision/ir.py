"""The internal representation (IR) and the stream graph.

A validated query compiles to a DAG of :class:`IRNode` — one per operator
— which the optimizer rewrites and the Provision Service then cuts into
*stages* at shuffle boundaries. Each stage becomes one Turbine job; stages
communicate through Scribe categories, never directly ("The communication
between jobs is performed through Facebook's persistent message bus",
paper section II).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.provision.query import (
    Aggregate,
    Filter,
    Join,
    Operator,
    Project,
    Query,
    QueryError,
    Shuffle,
    Sink,
    Source,
    Union,
    Window,
)
from repro.types import sum_in_order


@dataclass
class IRNode:
    """One operator in the IR DAG."""

    node_id: int
    kind: str           # source|filter|project|shuffle|aggregate|join|sink
    op: Operator
    inputs: List["IRNode"] = field(default_factory=list)
    #: Estimated output rate in MB/s (propagated through selectivities).
    rate_mb: float = 0.0

    @property
    def stateful(self) -> bool:
        return self.kind in ("aggregate", "join", "window")


_KINDS = {
    Source: "source",
    Filter: "filter",
    Project: "project",
    Shuffle: "shuffle",
    Aggregate: "aggregate",
    Join: "join",
    Union: "union",
    Window: "window",
    Sink: "sink",
}


@dataclass
class StreamGraph:
    """The IR DAG for one query, rooted at the sink node."""

    query_name: str
    sink: IRNode
    nodes: List[IRNode]

    def topological(self) -> List[IRNode]:
        """Nodes with inputs before users."""
        ordered: List[IRNode] = []
        seen = set()

        def visit(node: IRNode) -> None:
            for parent in node.inputs:
                visit(parent)
            if node.node_id not in seen:
                seen.add(node.node_id)
                ordered.append(node)

        visit(self.sink)
        return ordered

    def sources(self) -> List[IRNode]:
        return [node for node in self.topological() if node.kind == "source"]


def compile_query(query: Query) -> StreamGraph:
    """Validate and compile a query to its IR, with rate propagation."""
    query.validate()
    counter = itertools.count()
    memo: Dict[int, IRNode] = {}

    def build(op: Operator) -> IRNode:
        if id(op) in memo:
            return memo[id(op)]
        inputs = [build(parent) for parent in op.inputs]
        kind = _KINDS.get(type(op))
        if kind is None:
            raise QueryError(f"unknown operator type {type(op).__name__}")
        node = IRNode(next(counter), kind, op, inputs)
        node.rate_mb = _estimate_rate(node)
        memo[id(op)] = node
        return node

    sink_node = build(query.sink)
    nodes = list(memo.values())
    return StreamGraph(query.name, sink_node, nodes)


def _estimate_rate(node: IRNode) -> float:
    """Propagate rate estimates through the operators."""
    if node.kind == "source":
        return node.op.rate_mb  # type: ignore[union-attr]
    input_rate = sum_in_order(parent.rate_mb for parent in node.inputs)
    if node.kind == "filter":
        return input_rate * node.op.selectivity  # type: ignore[union-attr]
    if node.kind == "project":
        # Projection drops columns; approximate by kept-column fraction.
        op: Project = node.op  # type: ignore[assignment]
        parent_width = max(1, len(op.parent.output_schema().fields))
        return input_rate * len(op.columns) / parent_width
    if node.kind == "aggregate":
        # Aggregation emits per-key updates; typically a large reduction.
        return input_rate * 0.1
    if node.kind == "window":
        # Tumbling windows emit one row per key per window: a milder
        # reduction than a running aggregation.
        return input_rate * 0.3
    # shuffle, join, union, sink: pass through the combined input rate.
    return input_rate
