"""A faithful tile-graph fuser (Welder/NNFusion's abstraction, section 3).

Welder refines operator dependencies to tile granularity and stitches
producer/consumer *tiles* via shape alignment: pick an output tile, derive
the input tiles every operator needs to produce it, and fuse while the
aligned intermediate tiles fit in shared memory.  Crucially — and this is
the paper's Figure-2 critique — intra-operator dependencies are replaced
by input→output tile shape mappings, so a reduction's input tile must span
the *whole* reduced extent.  For Softmax-GEMM that means a
``tile_m × K`` intermediate: workable at K=256, shared-memory-infeasible
at K=1024 ("even fusion failures"), and never reorderable into the
better-locality schedule of Figure 2(d) because the dependency information
needed for that transformation was discarded.

This module implements the abstraction for real: backward tile
propagation, greedy alignment-based grouping under the shared-memory
budget, and scheduling of the resulting groups — no Update-then-Aggregate,
no broadcast postposition, exactly the capability envelope Table 2
ascribes to the tile-graph generation of compilers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.compiler import schedule_single_op_kernels
from ..core.partition import subgraphs_from_ops
from ..core.schedule import ProgramSchedule
from ..core.scheduler import SlicingOptions
from ..hw.specs import GPUSpec
from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from ..ir.tensor import DTYPE_BYTES
from .common import schedule_op_group, timing_fn_for

#: Default output tile extent per dimension (the paper's TileM_align = 16).
DEFAULT_TILE = 16


@dataclass
class TilePlan:
    """Tile extents per tensor for one fusion group (dim -> elements)."""

    tiles: dict[str, dict[str, int]] = field(default_factory=dict)

    def tile_elems(self, graph: DataflowGraph, tensor: str) -> int:
        spec = graph.tensors[tensor]
        tile = self.tiles.get(tensor, {})
        n = 1
        for d in spec.dims:
            n *= tile.get(d, graph.dims.size(d))
        return n

    def tile_bytes(self, graph: DataflowGraph, tensor: str) -> int:
        spec = graph.tensors[tensor]
        return self.tile_elems(graph, tensor) * DTYPE_BYTES[spec.dtype]


def propagate_tiles(graph: DataflowGraph, ops: list[Op],
                    out_tile: dict[str, int]) -> TilePlan:
    """Backward tile-shape propagation through a candidate group.

    Starting from the group outputs' tile, each operator demands of its
    inputs: matching dims at the output tile's extent, reduced dims at
    their *full* extent (the shape-mapping compression of section 3), and
    broadcast dims dropped.  Multi-consumer tensors take the union
    (max per dim).
    """
    plan = TilePlan()
    in_group = {op.name for op in ops}
    produced = {op.output for op in ops}
    consumed_inside = {t for op in ops for t in op.inputs}
    group_outputs = [t for t in produced
                     if t not in consumed_inside
                     or t in (graph.declared_outputs or [])]

    def demand(tensor: str, tile: dict[str, int]) -> None:
        current = plan.tiles.setdefault(tensor, {})
        for d, size in tile.items():
            current[d] = max(current.get(d, 0), size)

    for t in group_outputs:
        spec = graph.tensors[t]
        demand(t, {d: min(out_tile.get(d, graph.dims.size(d)),
                          graph.dims.size(d))
                   for d in spec.dims})

    for op in reversed([o for o in graph.topological_ops()
                        if o.name in in_group]):
        out_spec_tile = plan.tiles.get(op.output)
        if out_spec_tile is None:
            out_spec_tile = {d: graph.dims.size(d)
                             for d in graph.tensors[op.output].dims}
            plan.tiles[op.output] = out_spec_tile
        for idx, tensor in enumerate(op.inputs):
            axes = op.input_axes[idx]
            tile: dict[str, int] = {}
            for d in axes:
                if d in op.reduce_dims:
                    tile[d] = graph.dims.size(d)      # whole reduced range
                elif d in out_spec_tile:
                    tile[d] = out_spec_tile[d]
                else:
                    tile[d] = graph.dims.size(d)
            demand(tensor, tile)
    return plan


def group_smem_bytes(graph: DataflowGraph, ops: list[Op],
                     plan: TilePlan) -> int:
    """Shared memory one aligned group needs: every *intermediate* tile is
    resident simultaneously (tile stitching keeps producer tiles alive for
    their consumers; there is no temporal reuse without serialisation)."""
    produced = {op.output for op in ops}
    consumed = {t for op in ops for t in op.inputs}
    intermediates = produced & consumed
    return sum(plan.tile_bytes(graph, t) for t in intermediates)


@dataclass
class TileGroup:
    ops: list[Op]
    plan: TilePlan
    smem_bytes: int


def tile_graph_fuse(graph: DataflowGraph, gpu: GPUSpec,
                    tile: int = DEFAULT_TILE) -> list[TileGroup]:
    """Greedy alignment-based fusion under the shared-memory budget.

    Walk the topological order, extending the current group while the
    aligned tiles fit; a producer whose inclusion overflows shared memory
    starts a new group — the "fusion failure" of Figure 2(c)'s K=1024
    case, realised as a kernel cut.
    """
    budget = gpu.smem_per_block
    out_tile: dict[str, int] = {d: tile for d in graph.dims.names()}
    groups: list[TileGroup] = []
    current: list[Op] = []

    def close() -> None:
        nonlocal current
        if current:
            plan = propagate_tiles(graph, current, out_tile)
            groups.append(TileGroup(
                current, plan, group_smem_bytes(graph, current, plan)))
            current = []

    for op in graph.topological_ops():
        candidate = current + [op]
        plan = propagate_tiles(graph, candidate, out_tile)
        if group_smem_bytes(graph, candidate, plan) <= budget:
            current = candidate
        else:
            close()
            current = [op]
    close()
    return groups


def schedule_welder(graph: DataflowGraph, gpu: GPUSpec,
                    tile: int = DEFAULT_TILE) -> ProgramSchedule:
    """End-to-end Welder-style schedule: tile-graph grouping, then each
    group compiled without dependency transformation (spatial slicing and
    Simple Aggregate only — Table 2's capability row)."""
    rc = gpu.resource_config()
    sched = ProgramSchedule(f"{graph.name}@welder",
                            meta={"baseline": "welder", "cuda_graphs": True})
    groups = tile_graph_fuse(graph, gpu, tile)
    subs = subgraphs_from_ops(graph, [(f"{graph.name}.w{i}", group.ops)
                                      for i, group in enumerate(groups)])
    for group, sub in zip(groups, subs):
        if len(group.ops) == 1:
            kernels = schedule_single_op_kernels(sub, rc,
                                                 timing_fn_for(gpu))
        else:
            kernels = schedule_op_group(
                sub, rc, gpu, enable_uta=False, meta={"baseline": "welder"})
        for k in kernels:
            sched.add(k)
    return sched
