"""Memory-hierarchy scheduling (section 5.4).

SpaceFusion assigns memory levels directly from SMG structure:

* data spaces connected with One-to-One mappings inside a block, and
  iteration-space accumulators, map to **registers**;
* the source of a One-to-All and the sink of an All-to-One map to **shared
  memory** (repeated read/write access, potential inter-thread exchange);
* SMG input/output data spaces, and intermediates between two SMGs, map to
  **global memory**.

Temporal-stage aggregates (the running max/sum/output of UTA) are the one
refinement: they are per-row accumulators carried across intra-blocks, so
they live in registers like FlashAttention's running statistics.

The planner reads the two SMG edge kinds it needs from the ops' access
forms (the ones ``build_smg`` derives them from), so it builds no SMG,
not even for a graph UTA rewrote; :func:`check_memory_plan` re-derives
every level from a freshly built SMG, so planner and auditor stay
independent.
"""

from __future__ import annotations

from .builder import build_smg
from .mappings import A2O, O2A
from .schedule import KernelSchedule

REGISTER = "register"
SHARED = "shared"
GLOBAL = "global"


def plan_memory_levels(kernel: KernelSchedule) -> dict[str, str]:
    """Assign a memory level to every tensor of a kernel's execution graph.

    A One-to-All source is an input some op reuses along an iteration dim
    it lacks; an All-to-One sink is a reducing op's output.
    """
    graph = kernel.exec_graph
    plan = kernel.plan
    stage_outputs = set(plan.stage_outputs) if plan is not None else set()
    inputs = set(graph.input_tensors)
    outputs = set(graph.output_tensors)
    shared: set[str] = set()
    for op in graph.ops:
        shared.update(t for i, t in enumerate(op.inputs)
                      if op.broadcast_dims_of_input(i))
        if op.reduce_dims:
            shared.add(op.output)

    levels: dict[str, str] = {}
    for tensor in graph.tensors:
        if tensor in inputs or tensor in outputs:
            levels[tensor] = GLOBAL
        elif tensor in stage_outputs:
            levels[tensor] = REGISTER
        else:
            levels[tensor] = SHARED if tensor in shared else REGISTER
    return levels


def apply_memory_plan(kernel: KernelSchedule) -> KernelSchedule:
    kernel.memory_levels = plan_memory_levels(kernel)
    return kernel


def check_memory_plan(kernel: KernelSchedule) -> list[str]:
    """Re-check a kernel's memory-level assignment against section 5.4.

    Unlike :func:`plan_memory_levels` this does not *produce* a plan — it
    re-derives what each tensor's level must be from SMG structure and
    reports every divergence, so a doctored or stale ``memory_levels`` map
    is caught even though the executors never consult it for correctness.
    Returns a list of human-readable violations (empty when legal).
    """
    problems: list[str] = []
    graph = kernel.exec_graph
    levels = kernel.memory_levels
    if not levels:
        return [f"kernel {kernel.name!r} has no memory plan"]

    smg = build_smg(graph, name=f"{kernel.name}@memcheck")
    plan = kernel.plan
    stage_outputs = set(plan.stage_outputs) if plan is not None else set()
    inputs = set(graph.input_tensors)
    outputs = set(graph.output_tensors)
    valid = {REGISTER, SHARED, GLOBAL}

    for tensor in graph.tensors:
        level = levels.get(tensor)
        if level is None:
            problems.append(f"tensor {tensor!r} has no memory level")
            continue
        if level not in valid:
            problems.append(f"tensor {tensor!r} has unknown level {level!r}")
            continue
        if tensor in inputs or tensor in outputs:
            if level != GLOBAL:
                problems.append(
                    f"kernel-boundary tensor {tensor!r} must be global, "
                    f"planned {level!r}")
            continue
        if tensor in stage_outputs:
            if level != REGISTER:
                problems.append(
                    f"aggregate {tensor!r} is a per-row accumulator carried "
                    f"across intra-blocks and must be register, planned "
                    f"{level!r}")
            continue
        is_o2a_source = any(m.kind is O2A for m in smg.out_edges(tensor))
        is_a2o_sink = any(m.kind is A2O for m in smg.in_edges(tensor))
        expected = SHARED if (is_o2a_source or is_a2o_sink) else REGISTER
        if level != expected:
            reason = ("feeds a One-to-All / sinks an All-to-One"
                      if expected == SHARED
                      else "participates only in One-to-One mappings")
            problems.append(
                f"intermediate {tensor!r} {reason} and must be {expected}, "
                f"planned {level!r}")
    for tensor in levels:
        if tensor not in graph.tensors:
            problems.append(
                f"memory plan names unknown tensor {tensor!r}")
    return problems


def shared_tensors(kernel: KernelSchedule) -> list[str]:
    return [t for t, lvl in kernel.memory_levels.items() if lvl == SHARED]


def register_tensors(kernel: KernelSchedule) -> list[str]:
    return [t for t, lvl in kernel.memory_levels.items() if lvl == REGISTER]
