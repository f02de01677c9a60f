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
from typing import Sequence

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


def subgraphs_from_ops(graph: DataflowGraph,
                       groups: Sequence[tuple[str, Sequence[Op]]],
                       ) -> list[DataflowGraph]:
    """Cut ``graph`` into standalone graphs, one per ``(name, ops)`` group.

    The groups must be disjoint.  A tensor a group produces is one of its
    declared outputs when an op outside the group reads it, when it is an
    output of ``graph``, or when no op inside the group reads it — the
    paper's duplicated intermediate data spaces at a cut.
    """
    # SSA: an op is known by the one tensor it writes.
    group_of = {op.output: i for i, (_name, ops) in enumerate(groups)
                for op in ops}
    # The one group whose ops alone read a tensor, or -1 when an op outside
    # every group or two different groups read it.
    sole_reader: dict[str, int] = {}
    for op in graph.ops:
        g = group_of.get(op.output, -1)
        for t in op.inputs:
            if sole_reader.setdefault(t, g) != g:
                sole_reader[t] = -1
    # An undeclared graph output has no reader, so only declared outputs
    # need naming here.
    graph_outputs = set(graph.declared_outputs or ())
    subs = []
    for i, (name, ops) in enumerate(groups):
        sub = DataflowGraph(name, dims=graph.dims)
        # Tensors and outputs go in in op order, never by iterating a set:
        # the serialized schedule (a cache key, and bytes on disk) must
        # not depend on the process's string-hash seed.
        for op in ops:
            for t in (*op.inputs, op.output):
                sub.tensors.setdefault(t, graph.tensors[t])
        sub.ops = list(ops)
        sub.declared_outputs = [
            op.output for op in ops
            if sole_reader.get(op.output) != i or op.output in graph_outputs
        ]
        sub.validate()
        subs.append(sub)
    return subs


@dataclass
class PartitionCandidate:
    """One (Gf, Gl) split produced by a partition round."""

    former: DataflowGraph
    latter: DataflowGraph | None = None  # None when Gl would be empty


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

    def split(cut: int) -> PartitionCandidate:
        former = [op for seg in segments[:cut] for op in seg.ops]
        latter = [op for seg in segments[cut:] for op in seg.ops]
        groups = [(f"{graph.name}.f", former)]
        if latter:
            groups.append((f"{graph.name}.l", latter))
        return PartitionCandidate(*subgraphs_from_ops(graph, groups))

    candidates: list[PartitionCandidate] = []
    for cut in range(len(segments), 0, -1):
        cand = split(cut)
        if is_schedulable(cand.former):
            candidates.append(cand)
            # Section 5.3: speculatively peel one more trailing non-A2O
            # sub-SMG from the schedulable former side.
            if explore_candidates and cut > 1 and segments[cut - 1].kind == "nonA2O":
                extra = split(cut - 1)
                if is_schedulable(extra.former):
                    candidates.append(extra)
            break
    return candidates
