"""Temporal slicer: serialising an SMG block into intra-blocks (section 4.3).

A temporal slicer partitions an SMG block along one dimension into
serially-executed intra-blocks so that intermediate variables live only for
one intra-block, shrinking the on-chip footprint.  Reductions along the
sliced dimension must be aggregated across intra-blocks:

* **Simple Aggregate (SA)** for independent All-to-Ones;
* **Update-then-Aggregate (UTA)** for dependent chains, re-normalising old
  partials via generated update functions before aggregating.

The output of this module is an :class:`AggregationPlan`: the rewritten
execution graph, the ordered reduction stages with their update functions,
and the pass-1/pass-2 op partition the executor interprets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from .builder import build_smg
from .rewrites import prepare_for_temporal_slicing
from .smg import SMG
from .update_functions import UpdateFunction, UTAError, synthesize_update_functions


@dataclass(frozen=True)
class ReductionStage:
    """One reduction aggregated across intra-blocks."""

    op_name: str
    output: str
    combiner: str  # "sum" | "max" | "min"
    update: UpdateFunction

    @property
    def uses_uta(self) -> bool:
        return not self.update.is_identity


@dataclass
class AggregationPlan:
    """Everything the executor needs to run a temporally sliced SMG block.

    Attributes:
        dim: the sliced (intra-block) dimension.
        graph: the rewritten execution graph — "solely employed for UTA;
            the original dataflow remains unchanged" (section 4.3).
        stages: reduction stages in dependency order.
        tile_op_names: pass-1 ops evaluated per intra-block (ancestors of
            the stage outputs, stages included).
        pass2_op_names: pass-2 ops evaluated per intra-block after the
            aggregation loop, with stage outputs treated as given; includes
            recomputation of tile-local ancestors they need.
        rewritten: whether a structural rewrite (variance decomposition)
            fired during broadcast postposition.
    """

    dim: str
    graph: DataflowGraph
    stages: list[ReductionStage]
    tile_op_names: list[str]
    pass2_op_names: list[str]
    rewritten: bool = False

    @property
    def stage_outputs(self) -> list[str]:
        return [s.output for s in self.stages]

    @property
    def uses_uta(self) -> bool:
        return any(s.uses_uta for s in self.stages)

    @property
    def has_pass2(self) -> bool:
        return bool(self.pass2_op_names)

    def describe(self) -> str:
        lines = [f"AggregationPlan(dim={self.dim!r}, "
                 f"{'UTA' if self.uses_uta else 'SA'}, "
                 f"{len(self.stages)} stages, pass2={self.has_pass2})"]
        for s in self.stages:
            lines.append(f"  stage {s.op_name} [{s.combiner}] -> {s.output}: "
                         f"{s.update.describe()}")
        return "\n".join(lines)


class TemporalSliceError(Exception):
    """Raised when a dimension cannot be temporally sliced."""


def temporal_dim_candidates(smg: SMG, excluded: set[str]) -> list[str]:
    """Dimensions eligible for temporal slicing, best-priority first.

    Priority follows Algorithm 1 line 9: the dimension along which the SMG
    block holds the largest data-space volume wins, because slicing it
    yields the greatest on-chip footprint reduction.  Only dimensions that
    actually carry mappings (there is something to slice) are returned.
    """
    candidates = []
    for dim in smg.dims:
        if dim in excluded:
            continue
        if not smg.mappings_along(dim):
            continue
        candidates.append(dim)
    candidates.sort(key=lambda d: smg.volume_along(d), reverse=True)
    return candidates


def _ancestor_ops(graph: DataflowGraph, targets: set[str]) -> list[Op]:
    """Ops needed to produce ``targets``, topologically ordered."""
    ops = graph.topological_ops()
    needed = set(targets)
    chosen: list[Op] = []
    for op in reversed(ops):
        if op.output in needed:
            chosen.append(op)
            needed.update(op.inputs)
    chosen.reverse()
    return chosen


def plan_temporal_slice(smg: SMG, dim: str) -> AggregationPlan:
    """Build the aggregation plan for slicing ``smg`` along ``dim``.

    Applies broadcast-postposition rewrites, derives each reduction stage's
    update function, and partitions ops into the pass-1 aggregation loop
    and the pass-2 epilogue.

    Raises:
        TemporalSliceError: if the graph is missing or the dimension carries
            a dependent All-to-One chain whose update functions cannot be
            synthesised (the paper's unschedulable case — the caller falls
            back to SMG partitioning).
    """
    if smg.graph is None:
        raise TemporalSliceError("SMG has no attached dataflow graph")
    if dim not in smg.dims:
        raise TemporalSliceError(f"unknown dimension {dim!r}")

    exec_graph, rewritten = prepare_for_temporal_slicing(smg.graph, dim)

    # Reduction stages: every op reducing over `dim` in the rewritten graph,
    # in topological order (which is also chain-dependency order).
    stage_ops = [op for op in exec_graph.topological_ops()
                 if dim in op.reduce_dims]

    try:
        updates = synthesize_update_functions(exec_graph, dim, stage_ops)
    except UTAError as exc:
        raise TemporalSliceError(
            f"cannot temporally slice {smg.name!r} along {dim!r}: {exc}"
        ) from exc

    stages = [
        ReductionStage(op.name, op.output, op.reduce_kind, upd)
        for op, upd in zip(stage_ops, updates)
    ]

    stage_outputs = {s.output for s in stages}
    tile_ops = _ancestor_ops(exec_graph, stage_outputs)
    tile_names = [op.name for op in tile_ops]

    # Pass 2 produces every non-aggregate kernel output; stage ops are not
    # re-executed (their outputs are the final aggregates).
    remaining_outputs = {t for t in exec_graph.output_tensors
                         if t not in stage_outputs}
    pass2_names: list[str] = []
    if remaining_outputs:
        needed = set(remaining_outputs)
        chosen: list[Op] = []
        for op in reversed(exec_graph.topological_ops()):
            if op.output in needed and op.output not in stage_outputs:
                chosen.append(op)
                needed.update(op.inputs)
        chosen.reverse()
        pass2_names = [op.name for op in chosen]

    return AggregationPlan(
        dim=dim,
        graph=exec_graph,
        stages=stages,
        tile_op_names=tile_names,
        pass2_op_names=pass2_names,
        rewritten=rewritten,
    )
