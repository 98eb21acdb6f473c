"""Rule-based IR optimization.

The paper mentions compilation and optimization before provisioning
(Fig. 2) without detailing the rules; the classical streaming rewrites
implemented here are:

* **predicate pushdown** — filters move below shuffles, so less data
  crosses the (Scribe-backed, therefore expensive) stage boundary;
* **projection pushdown** — projections likewise move below shuffles when
  they keep the shuffle key;
* **filter fusion** — adjacent filters combine into one (selectivities
  multiply), shrinking the operator chain each task executes.

Each rewrite preserves the output schema — asserted by the optimizer
itself after every pass, so a bad rule fails loudly rather than silently
corrupting a pipeline.
"""

from __future__ import annotations

from typing import List, Optional

from repro.provision.ir import IRNode, StreamGraph
from repro.provision.query import Filter, Project, QueryError, Shuffle


#: Rewrite passes after which the optimizer stops, fixpoint or not.
MAX_PASSES = 10


def optimize(graph: StreamGraph) -> StreamGraph:
    """Apply rewrite rules to fixpoint (bounded by :data:`MAX_PASSES`)."""
    schema_before = graph.sink.op.output_schema()
    for __ in range(MAX_PASSES):
        changed = False
        changed |= _push_filters_below_shuffles(graph)
        changed |= _push_projections_below_shuffles(graph)
        changed |= _fuse_adjacent_filters(graph)
        if not changed:
            break
    schema_after = graph.sink.op.output_schema()
    if schema_after != schema_before:
        raise QueryError(
            f"optimizer changed the output schema of {graph.query_name!r}"
        )
    _recompute_rates(graph)
    return graph


# ----------------------------------------------------------------------
# Rules (operate on the IR linkage; the op objects are re-linked to match)
# ----------------------------------------------------------------------
def _push_filters_below_shuffles(graph: StreamGraph) -> bool:
    """filter(shuffle(x)) → shuffle(filter(x))."""
    changed = False
    for node in graph.topological():
        if node.kind != "filter" or len(node.inputs) != 1:
            continue
        below = node.inputs[0]
        if below.kind != "shuffle":
            continue
        # The filter's field must exist below the shuffle (it always does
        # — shuffles do not change schemas — but assert anyway).
        inner = below.inputs[0]
        if not inner.op.output_schema().has(node.op.predicate_field):
            continue
        _swap_parent_child(graph, upper=node, lower=below)
        changed = True
    return changed


def _push_projections_below_shuffles(graph: StreamGraph) -> bool:
    """project(shuffle(x)) → shuffle(project(x)) when the key survives."""
    changed = False
    for node in graph.topological():
        if node.kind != "project" or len(node.inputs) != 1:
            continue
        below = node.inputs[0]
        if below.kind != "shuffle":
            continue
        if below.op.key not in node.op.columns:
            continue  # dropping the shuffle key would break partitioning
        _swap_parent_child(graph, upper=node, lower=below)
        changed = True
    return changed


def _fuse_adjacent_filters(graph: StreamGraph) -> bool:
    """filter(filter(x)) → filter(x) with combined selectivity."""
    for node in graph.topological():
        if node.kind != "filter":
            continue
        below = node.inputs[0]
        if below.kind != "filter":
            continue
        combined = Filter(
            parent=below.op.parent,
            predicate_field=node.op.predicate_field,
            selectivity=node.op.selectivity * below.op.selectivity,
        )
        node.op = combined
        node.inputs = list(below.inputs)
        _replace_uses(graph, old=below, new=None)
        graph.nodes = [n for n in graph.nodes if n.node_id != below.node_id]
        return True
    return False


# ----------------------------------------------------------------------
# Linkage helpers
# ----------------------------------------------------------------------
def _swap_parent_child(graph: StreamGraph, upper: IRNode, lower: IRNode) -> None:
    """Swap a unary ``upper`` with its unary ``lower`` input in the DAG.

    Before: users -> upper -> lower -> inner
    After:  users -> lower -> upper -> inner
    """
    inner = lower.inputs[0]
    # Re-link the IR nodes.
    for user in graph.nodes:
        user.inputs = [lower if p is upper else p for p in user.inputs]
    if graph.sink is upper:
        graph.sink = lower
    upper.inputs = [inner]
    lower.inputs = [upper]
    # Re-link the operator objects to keep schemas derivable.
    _relink_op(upper, inner)
    _relink_op(lower, upper)


def _relink_op(node: IRNode, new_parent: IRNode) -> None:
    op = node.op
    if isinstance(op, Filter):
        node.op = Filter(new_parent.op, op.predicate_field, op.selectivity)
    elif isinstance(op, Project):
        node.op = Project(new_parent.op, op.columns)
    elif isinstance(op, Shuffle):
        node.op = Shuffle(new_parent.op, op.key)
    else:  # pragma: no cover - only unary rewrites call this
        raise QueryError(f"cannot relink operator kind {node.kind}")
    node.inputs = [new_parent]


def _replace_uses(graph: StreamGraph, old: IRNode, new: Optional[IRNode]) -> None:
    for node in graph.nodes:
        node.inputs = [
            (new if p is old else p) for p in node.inputs if new or p is not old
        ]


def _recompute_rates(graph: StreamGraph) -> None:
    from repro.provision.ir import _estimate_rate

    for node in graph.topological():
        node.rate_mb = _estimate_rate(node)
