"""Shared machinery for baseline schedule generators.

Baselines differ from SpaceFusion along exactly two axes the paper
analyses: *which operators they fuse into one kernel* (Table 6) and *how
well-tuned the resulting kernels are* (manual CUDA vs generated code).
Each baseline is therefore expressed as a grouping policy over the graph
plus per-kernel efficiency/config annotations, all scheduled through the
same slicing machinery and costed by the same simulator — keeping the
comparison apples-to-apples.
"""

from __future__ import annotations

from typing import Callable

from ..core.builder import build_smg
from ..core.compiler import FusionOptions, schedule_single_op_kernels
from ..core.memory_planner import apply_memory_plan
from ..core.partition import subgraph_from_ops
from ..core.resources import ResourceConfig
from ..core.schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from ..core.scheduler import SlicingOptions, resource_aware_slicing
from ..hw.simulator import DeviceSimulator
from ..hw.specs import GPUSpec
from ..ir.graph import DataflowGraph
from ..ir.ops import Op


def timing_fn_for(gpu: GPUSpec) -> Callable[[KernelSchedule, ScheduleConfig], float]:
    return DeviceSimulator(gpu).kernel_time


def schedule_op_group(graph: DataflowGraph, ops: list[Op], name: str,
                      rc: ResourceConfig, gpu: GPUSpec,
                      efficiency: float = 1.0,
                      enable_uta: bool = True,
                      fixed_config: ScheduleConfig | None = None,
                      meta: dict | None = None) -> list[KernelSchedule]:
    """Schedule one fusion group as a single kernel if the slicers allow it,
    falling back to per-op kernels otherwise."""
    downstream = {
        t for other in graph.ops if other not in ops for t in other.inputs
    } | set(graph.output_tensors)
    sub = subgraph_from_ops(graph, ops, name, downstream_needs=downstream)
    smg = build_smg(sub)
    result = resource_aware_slicing(
        smg, rc, SlicingOptions(enable_uta=enable_uta))
    timing = timing_fn_for(gpu)
    if result.candidates:
        best = None
        best_t = float("inf")
        for kernel in result.candidates:
            kernel.meta["efficiency"] = efficiency
            if meta:
                kernel.meta.update(meta)
            cfg = fixed_config or _pick_config(kernel, timing)
            kernel.config = cfg
            t = timing(kernel, cfg)
            if t < best_t:
                best, best_t = kernel, t
        assert best is not None
        apply_memory_plan(best)
        return [best]
    return schedule_single_op_kernels(sub, rc, timing, efficiency=efficiency)


def _pick_config(kernel: KernelSchedule, timing) -> ScheduleConfig:
    """Library kernels ship with well-chosen fixed block sizes: modelled as
    a coarse sweep over the (legal) config space."""
    if not kernel.search_space:
        return ScheduleConfig(block=())
    return min(kernel.search_space, key=lambda c: timing(kernel, c))


def group_by_attr(graph: DataflowGraph) -> list[list[Op]]:
    """Group ops by their ``fusion_group`` tag; untagged ops are singletons."""
    groups: dict[str, list[Op]] = {}
    order: list[tuple[str | None, list[Op]]] = []
    for op in graph.topological_ops():
        tag = op.attrs.get("fusion_group")
        if tag is None:
            order.append((None, [op]))
        elif tag in groups:
            groups[tag].append(op)
        else:
            groups[tag] = [op]
            order.append((tag, groups[tag]))
    return [ops for _tag, ops in order]
