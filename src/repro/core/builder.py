"""Construction of Space-Mapping Graphs from dataflow graphs (section 4.1).

Per-operator SMGs follow Figure 3: each input tensor becomes a data space,
the loop nest becomes an iteration space, and mappings are derived from the
operator's access form.  The fused SMG for a multi-operator subgraph follows
Figure 4: producer-output and consumer-input data spaces of the same tensor
are connected with One-to-One mappings and fused into a single intermediate
data space via dimension alignment — here realised directly by giving each
tensor exactly one data-space node.
"""

from __future__ import annotations

from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from .mappings import A2O, O2A, O2O, Mapping
from .smg import SMG, SMGError
from .spaces import DataSpace, IterationSpace


def _global_dims(graph: DataflowGraph) -> tuple[str, ...]:
    """Ordered union of all operator iteration dimensions."""
    dims: list[str] = []
    for op in graph.ops:
        for d in op.iter_dims:
            if d not in dims:
                dims.append(d)
    return tuple(dims)


def _iteration_space_name(op: Op, taken: set[str]) -> str:
    name = op.name
    while name in taken:
        name = f"{name}@it"
    return name


def build_smg(graph: DataflowGraph, name: str | None = None) -> SMG:
    """Lift a barrier-free dataflow graph into its fused SMG.

    Raises :class:`SMGError` when the graph contains shape/layout barrier
    operators — those must be cut away by program partitioning first.
    """
    graph.validate()
    for op in graph.ops:
        if op.is_barrier:
            raise SMGError(
                f"op {op.name!r} is a layout barrier; partition the program "
                "before building SMGs"
            )

    smg = SMG(
        name=name or graph.name,
        dims=_global_dims(graph),
        registry=graph.dims,
        graph=graph,
    )

    inputs = set(graph.input_tensors)
    outputs = set(graph.output_tensors)

    # One data space per tensor: producer-output / consumer-input pairs are
    # fused upfront (the paper's step 4 in Figure 4).
    for tname, spec in graph.tensors.items():
        if not any(tname in op.inputs or op.output == tname for op in graph.ops):
            continue
        role = "input" if tname in inputs else "output" if tname in outputs else "intermediate"
        smg.add_space(DataSpace.of(
            name=tname,
            dims=spec.dims,
            dtype=spec.dtype,
            role=role,
            is_weight=spec.is_weight,
        ))

    # One iteration space per operator, with mappings derived from the
    # access form (Figure 3's GEMM example generalised).
    for op in graph.ops:
        it_name = _iteration_space_name(op, set(smg.spaces))
        smg.add_space(IterationSpace.of(
            name=it_name,
            dims=op.iter_dims,
            op_name=op.name,
            op_kind=op.kind,
        ))
        for idx, (tname, _axes) in enumerate(zip(op.inputs, op.input_axes)):
            bcast = op.broadcast_dims_of_input(idx)
            if bcast:
                smg.add_mapping(Mapping.of(
                    src=tname, dst=it_name, kind=O2A,
                    dims=frozenset(bcast), input_index=idx,
                ))
            else:
                smg.add_mapping(Mapping.of(
                    src=tname, dst=it_name, kind=O2O, input_index=idx,
                ))
        if op.reduce_dims:
            smg.add_mapping(Mapping.of(
                src=it_name, dst=op.output, kind=A2O,
                dims=frozenset(op.reduce_dims), reduce_kind=op.reduce_kind,
            ))
        else:
            smg.add_mapping(Mapping.of(src=it_name, dst=op.output, kind=O2O))

    smg.validate()
    return smg


def build_op_smg(graph: DataflowGraph, op_name: str) -> SMG:
    """SMG of a single operator inside ``graph`` (Figure 3).

    Tensors touched only by this op keep their graph-level roles relaxed to
    input/output of the one-op kernel.
    """
    op = graph.op(op_name)
    sub = DataflowGraph(f"{graph.name}.{op_name}", dims=graph.dims)
    for t in (*op.inputs, op.output):
        sub.tensors.setdefault(t, graph.tensors[t])
    sub.ops.append(op)
    return build_smg(sub)


def iteration_space_of(smg: SMG, op_name: str) -> str:
    """Name of the iteration-space node abstracting operator ``op_name``."""
    for s in smg.iteration_spaces():
        if s.op_name == op_name:
            return s.name
    raise SMGError(f"SMG {smg.name!r} has no iteration space for op {op_name!r}")


def op_of_iteration_space(smg: SMG, space_name: str) -> Op:
    """The IR operator behind an iteration-space node."""
    space = smg.space(space_name)
    if not isinstance(space, IterationSpace):
        raise SMGError(f"{space_name!r} is not an iteration space")
    if smg.graph is None:
        raise SMGError("SMG has no attached dataflow graph")
    return smg.graph.op(space.op_name)
