"""Unfused baselines: per-operator and library-granularity schedules.

Two granularities appear in the paper's comparisons:

* **primitive** — every IR operator is its own kernel.  This is the
  "manually-tuned unfused baseline" of the subgraph experiments (each
  operator of Figure 10 maps to one cuBLAS/CUDA kernel).
* **library** — the PyTorch eager execution model: GEMMs go to cuBLAS,
  composite library ops (softmax, LayerNorm, RMSNorm) each run as one
  hand-written fused kernel, everything else is an element-wise kernel.
"""

from __future__ import annotations

from ..core.compiler import schedule_single_op_kernels
from ..core.partition import subgraphs_from_ops
from ..core.schedule import ProgramSchedule
from ..hw.specs import GPUSpec
from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from .common import group_by_attr, schedule_op_group, timing_fn_for

#: Hand-written CUDA kernels reach a somewhat higher fraction of peak than
#: generated code; these factors encode that advantage in the cost model.
CUBLAS_EFFICIENCY = 1.15
LIBRARY_FUSED_EFFICIENCY = 1.05


def schedule_unfused_primitive(graph: DataflowGraph, gpu: GPUSpec,
                               efficiency: float = CUBLAS_EFFICIENCY,
                               framework_overhead: bool = True,
                               ) -> ProgramSchedule:
    """Every operator as its own kernel (the unfused baseline)."""
    rc = gpu.resource_config()
    meta = {"baseline": "unfused"}
    if framework_overhead:
        meta["dispatch_overhead"] = 4.0e-6
    sched = ProgramSchedule(f"{graph.name}@unfused", meta=meta)
    for kernel in schedule_single_op_kernels(graph, rc, timing_fn_for(gpu),
                                             efficiency=efficiency):
        sched.add(kernel)
    return sched


def schedule_pytorch(graph: DataflowGraph, gpu: GPUSpec,
                     framework_overhead: bool = True,
                     fuse_groups: str = "torch") -> ProgramSchedule:
    """PyTorch eager: library composites fused, everything else per-op.

    ``framework_overhead=False`` models the same kernel granularity driven
    from a bare C++ harness (the authors' hand-written cuBLAS baselines)
    rather than through an eager framework's per-op dispatch.
    ``fuse_groups="all"`` honours every ``fusion_group`` tag (hand-grouped
    element-wise kernels); the default ``"torch"`` fuses only the groups
    PyTorch ships fused CUDA kernels for (softmax, LayerNorm).
    """
    rc = gpu.resource_config()
    meta = {"baseline": "pytorch"}
    if framework_overhead:
        meta["dispatch_overhead"] = 6.0e-6
    sched = ProgramSchedule(f"{graph.name}@pytorch", meta=meta)
    # (name, ops, efficiency): a library-fused group has no efficiency of
    # its own; every other op is its own kernel.
    parts: list[tuple[str, list[Op], float | None]] = []
    for ops in group_by_attr(graph):
        tag = ops[0].attrs.get("fusion_group", "") or ""
        fusable = (_is_torch_library_group(tag) if fuse_groups == "torch"
                   else bool(tag))
        if fusable and len(ops) > 1:
            parts.append((f"{graph.name}.{tag}", ops, None))
        else:
            # Only softmax/LayerNorm ship as fused torch CUDA kernels;
            # e.g. Huggingface RMSNorm runs as eager element-wise ops.
            parts.extend(
                (f"{graph.name}.{op.name}", [op],
                 CUBLAS_EFFICIENCY if op.is_contraction else 1.0)
                for op in ops)
    subs = subgraphs_from_ops(graph, [(name, ops) for name, ops, _ in parts])
    for (_name, _ops, eff), sub in zip(parts, subs):
        if eff is None:
            kernels = schedule_op_group(
                sub, rc, gpu, efficiency=LIBRARY_FUSED_EFFICIENCY,
                meta={"baseline": "pytorch-op"})
        else:
            kernels = schedule_single_op_kernels(
                sub, rc, timing_fn_for(gpu), efficiency=eff)
        for k in kernels:
            sched.add(k)
    return sched


def _is_torch_library_group(tag: str) -> bool:
    """Composite groups PyTorch executes as one fused CUDA kernel."""
    return tag.startswith("softmax") or tag.startswith("layernorm")
