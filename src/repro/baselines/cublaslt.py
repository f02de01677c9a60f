"""cuBLAS / cuBLASLt baselines (section 6.1's MLP and LSTM comparators).

cuBLAS executes each GEMM as one kernel and leaves everything else to
separate element-wise kernels.  cuBLASLt additionally fuses a GEMM with its
*epilogue* — the chain of element-wise consumers (bias add, activation,
residual add) that follows it — which is the single-layer-MLP fusion the
paper notes "is supported in most DL compilers".
"""

from __future__ import annotations

from ..core.compiler import schedule_single_op_kernels
from ..core.partition import subgraphs_from_ops
from ..core.schedule import ProgramSchedule
from ..hw.specs import GPUSpec
from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from .common import schedule_op_group, timing_fn_for
from .unfused import CUBLAS_EFFICIENCY


def _epilogue_chain(graph: DataflowGraph, gemm: Op,
                    taken: set[str]) -> list[Op]:
    """Element-wise consumers reachable from ``gemm`` with single producers
    inside the chain — the ops a cuBLASLt epilogue can absorb."""
    chain: list[Op] = []
    current = gemm.output
    while True:
        consumers = graph.consumers_of(current)
        if len(consumers) != 1:
            break
        nxt = consumers[0]
        if nxt.name in taken or nxt.is_reduction or nxt.is_contraction \
                or nxt.is_barrier:
            break
        chain.append(nxt)
        current = nxt.output
    return chain


def schedule_cublaslt(graph: DataflowGraph, gpu: GPUSpec,
                      fuse_epilogue: bool = True) -> ProgramSchedule:
    """GEMM(+epilogue) kernels plus per-op kernels for the rest.

    ``fuse_epilogue=False`` degrades to plain cuBLAS behaviour.
    """
    rc = gpu.resource_config()
    label = "cublaslt" if fuse_epilogue else "cublas"
    sched = ProgramSchedule(f"{graph.name}@{label}",
                            meta={"baseline": label})
    taken: set[str] = set()
    groups: list[list[Op]] = []
    for op in graph.topological_ops():
        if op.name in taken:
            continue
        if op.is_contraction:
            chain = _epilogue_chain(graph, op, taken) if fuse_epilogue else []
            group = [op, *chain]
            for g in group:
                taken.add(g.name)
            groups.append(group)
        else:
            taken.add(op.name)
            groups.append([op])

    # Merge consecutive non-contraction singletons: a cuBLASLt user writes
    # one fused element-wise kernel per run between library calls.
    merged: list[list[Op]] = []
    for ops in groups:
        if (merged and len(ops) == 1 and not ops[0].is_contraction
                and not ops[0].is_reduction
                and all(not o.is_contraction and not o.is_reduction
                        for o in merged[-1])):
            merged[-1].extend(ops)
        else:
            merged.append(list(ops))

    # A lone reduction runs as a plain CUDA kernel; every other group is a
    # library call (with its epilogue, or a fused element-wise run).
    lone = [len(ops) == 1 and ops[0].is_reduction
            and not ops[0].is_contraction for ops in merged]
    subs = subgraphs_from_ops(graph, [
        (f"{graph.name}.{ops[0].name}" if alone else
         f"{graph.name}.{label}{i}", ops)
        for i, (ops, alone) in enumerate(zip(merged, lone))])
    timing = timing_fn_for(gpu)
    for sub, alone in zip(subs, lone):
        if alone:
            kernels = schedule_single_op_kernels(sub, rc, timing,
                                                 efficiency=1.0)
        else:
            kernels = schedule_op_group(
                sub, rc, gpu, efficiency=CUBLAS_EFFICIENCY,
                meta={"baseline": label})
        for k in kernels:
            sched.add(k)
    return sched
