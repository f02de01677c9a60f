"""SMG partitioning: Algorithm 2 and candidate schedules (sections 5.2/5.3).

When resource-aware slicing fails — the fused space defines an overly
aggressive schedule — SpaceFusion reorganises the SMG into sub-SMGs:

* an **All-to-One sub-SMG**: one iteration space carrying an All-to-One
  mapping plus its neighbouring data spaces (here: one reducing operator);
* a **non-All-to-One sub-SMG**: a maximal run of operators without any
  All-to-One mapping (element-wise / broadcast chains).

A partition round peels sub-SMGs off the back of the graph into the latter
SMG ``Gl`` until the former ``Gf`` is schedulable; the intermediate data
space at the cut is duplicated so both sides own complete inputs/outputs
(realised here by declaring the crossing tensors as ``Gf`` outputs).

Section 5.3 deepens the exploration by one level: once a schedulable
``Gf`` is found, one more trailing non-All-to-One sub-SMG is speculatively
moved to ``Gl``, producing a second candidate partition whose merits the
auto-tuner arbitrates (memory-intensive sub-SMGs perform differently
depending on which compute-intensive neighbour they fuse with).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..ir.graph import DataflowGraph
from ..ir.ops import Op


@dataclass(frozen=True)
class SubSMG:
    """One reorganised segment: either an A2O segment or a non-A2O run."""

    kind: str  # "A2O" | "nonA2O"
    ops: tuple[Op, ...]


def reorganize_sub_smgs(graph: DataflowGraph) -> list[SubSMG]:
    """Split a graph's topological op sequence into sub-SMG segments."""
    segments: list[SubSMG] = []
    run: list[Op] = []
    for op in graph.topological_ops():
        if op.is_reduction:
            if run:
                segments.append(SubSMG("nonA2O", tuple(run)))
                run = []
            segments.append(SubSMG("A2O", (op,)))
        else:
            run.append(op)
    if run:
        segments.append(SubSMG("nonA2O", tuple(run)))
    return segments


def subgraph_from_ops(graph: DataflowGraph, ops: list[Op], name: str,
                      downstream_needs: set[str]) -> DataflowGraph:
    """Materialise a sub-SMG group as a standalone dataflow graph.

    ``downstream_needs`` lists tensors the remainder of the program (or the
    model output) still requires; produced tensors in that set become the
    subgraph's declared outputs — the paper's duplicated intermediate data
    spaces at the partition boundary.
    """
    sub = DataflowGraph(name, dims=graph.dims)
    # Tensors and outputs go in in op order, never by iterating a set:
    # the serialized schedule (a cache key, and bytes on disk) must not
    # depend on the process's string-hash seed.
    for op in ops:
        for t in (*op.inputs, op.output):
            sub.tensors.setdefault(t, graph.tensors[t])
    sub.ops = list(ops)
    consumed_inside = {t for op in ops for t in op.inputs}
    sub.declared_outputs = [
        op.output for op in ops
        if op.output in downstream_needs or op.output not in consumed_inside
    ]
    sub.validate()
    return sub


@dataclass
class PartitionCandidate:
    """One (Gf, Gl) split produced by a partition round."""

    former: DataflowGraph
    latter: DataflowGraph | None  # None when Gl would be empty


def _split(graph: DataflowGraph, segments: list[SubSMG], cut: int,
           global_needs: set[str]) -> PartitionCandidate:
    former_ops = [op for seg in segments[:cut] for op in seg.ops]
    latter_ops = [op for seg in segments[cut:] for op in seg.ops]
    latter_reads = {t for op in latter_ops for t in op.inputs}
    former = subgraph_from_ops(
        graph, former_ops, f"{graph.name}.f",
        downstream_needs=latter_reads | global_needs)
    latter = None
    if latter_ops:
        latter = subgraph_from_ops(
            graph, latter_ops, f"{graph.name}.l",
            downstream_needs=global_needs)
    return PartitionCandidate(former, latter)


def partition_round(graph: DataflowGraph, is_schedulable,
                    explore_candidates: bool = True,
                    ) -> list[PartitionCandidate]:
    """One round of Algorithm 2 (+ the section-5.3 exploration).

    Args:
        graph: the unschedulable SMG's dataflow graph.
        is_schedulable: predicate ``DataflowGraph -> bool`` wrapping
            ``tryResourceAwareSlicing``.
        explore_candidates: also emit the one-level-deeper candidate.

    Returns:
        One or two :class:`PartitionCandidate` splits whose ``former`` side
        is schedulable.  Empty list when even a single leading sub-SMG is
        unschedulable (the caller then falls back to per-operator kernels).
    """
    segments = reorganize_sub_smgs(graph)
    global_needs = set(graph.output_tensors)
    candidates: list[PartitionCandidate] = []

    for cut in range(len(segments), 0, -1):
        cand = _split(graph, segments, cut, global_needs)
        if is_schedulable(cand.former):
            candidates.append(cand)
            # Section 5.3: speculatively peel one more trailing non-A2O
            # sub-SMG from the schedulable former side.
            if explore_candidates and cut > 1 and segments[cut - 1].kind == "nonA2O":
                extra = _split(graph, segments, cut - 1, global_needs)
                if is_schedulable(extra.former):
                    candidates.append(extra)
            break
    return candidates
