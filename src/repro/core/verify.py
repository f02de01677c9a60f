"""Schedule auditor: static re-verification of compiled schedules.

Every layer of the pipeline (SMG build -> slicing/partitioning -> memory
planning -> tuning) can miscompile silently, and the executors faithfully
run whatever schedule they are handed.  The auditor re-checks each emitted
:class:`~repro.core.schedule.KernelSchedule` against the paper's own
invariants *independently of the compiler that produced it*:

* **resources** — Algorithm 1's checkRsrc, re-estimated against the target
  GPU's :class:`~repro.core.resources.ResourceConfig` (section 5.1);
* **memory** — memory-hierarchy placement legality per section 5.4
  (inputs/outputs in global, O2A sources and A2O sinks in shared,
  One-to-One intermediates and temporal aggregates in registers);
* **uta** — Update-then-Aggregate completeness per section 5.3: every
  reduction along the sliced dimension is a stage, stage order matches
  the dependency order, and each stage's update function equals an
  independently re-synthesised one;
* **spatial** — Table 3 slicing legality: no All-to-One and no
  intermediate-sourced One-to-All mapping resides within a spatially
  sliced dimension;
* **smg** — structural mapping-direction invariants
  (:meth:`repro.core.smg.SMG.validate`);
* **config** — the chosen configuration actually covers the schedule
  (a block size per spatial dim, a sane tile, temporal/spatial disjoint).

A seeded mutation self-test (:func:`run_selftest`) proves the auditor has
teeth: schedules doctored with a dropped update function, an over-budget
tile, an illegal memory placement, or an illegally sliced dimension must
each produce at least one finding.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from .builder import build_smg
from .memory_planner import check_memory_plan
from .resources import BlockFootprint, ResourceConfig
from .schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from .smg import SMGError
from .update_functions import UTAError, synthesize_update_functions

#: The checks the auditor runs, in report order.
AUDIT_CHECKS = ("config", "smg", "spatial", "resources", "memory", "uta")


@dataclass(frozen=True)
class AuditFinding:
    """One invariant violation discovered in a compiled schedule."""

    check: str        # one of AUDIT_CHECKS
    kernel: str       # kernel name the finding is anchored to
    message: str
    severity: str = "error"   # "error" | "warning"

    def describe(self) -> str:
        return f"[{self.check}] {self.kernel}: {self.message}"


@dataclass
class AuditReport:
    """Outcome of auditing one :class:`ProgramSchedule`."""

    program: str
    target: str
    findings: list[AuditFinding] = field(default_factory=list)
    kernels_audited: int = 0
    kernels_skipped: int = 0   # barrier/data-movement kernels

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def errors(self) -> list[AuditFinding]:
        return [f for f in self.findings if f.severity == "error"]

    def render(self) -> str:
        status = "OK" if self.ok else f"{len(self.errors)} violation(s)"
        lines = [f"audit {self.program} on {self.target}: "
                 f"{self.kernels_audited} kernel(s) audited, "
                 f"{self.kernels_skipped} barrier kernel(s) skipped — {status}"]
        for f in self.findings:
            lines.append(f"  {f.describe()}")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        return {
            "program": self.program,
            "target": self.target,
            "ok": self.ok,
            "kernels_audited": self.kernels_audited,
            "kernels_skipped": self.kernels_skipped,
            "findings": [
                {"check": f.check, "kernel": f.kernel, "severity": f.severity,
                 "message": f.message}
                for f in self.findings
            ],
        }


def _resolve_rc(target) -> tuple[ResourceConfig, str]:
    """Accept either a GPUSpec-like object or a raw ResourceConfig."""
    if isinstance(target, ResourceConfig):
        return target, "rc"
    rc = target.resource_config()
    return rc, getattr(target, "name", "gpu")


# ----------------------------------------------------------------------
# Per-kernel checks
# ----------------------------------------------------------------------


def _check_config(kernel: KernelSchedule) -> list[AuditFinding]:
    out: list[AuditFinding] = []

    def finding(msg: str, severity: str = "error") -> None:
        out.append(AuditFinding("config", kernel.name, msg, severity))

    try:
        cfg = kernel.effective_config()
    except ValueError as exc:
        finding(str(exc))
        return out

    for dim in kernel.spatial_dims:
        block = cfg.block_of(dim)
        if block is None:
            finding(f"no block size for spatial dim {dim!r}")
        elif block < 1:
            finding(f"non-positive block size {block} for dim {dim!r}")
        elif dim in kernel.smg.dims and block > kernel.smg.dim_size(dim):
            finding(f"block size {block} exceeds extent of dim {dim!r} "
                    f"({kernel.smg.dim_size(dim)})", severity="warning")
    for dim, _b in cfg.block:
        if dim not in kernel.spatial_dims:
            finding(f"config blocks dim {dim!r} which is not spatially sliced")

    if kernel.plan is not None:
        tdim = kernel.plan.dim
        if tdim in kernel.spatial_dims:
            finding(f"temporal dim {tdim!r} is also spatially sliced")
        if tdim not in kernel.smg.dims:
            finding(f"temporal dim {tdim!r} is not an SMG dimension")
        if cfg.tile is not None and cfg.tile < 1:
            finding(f"non-positive temporal tile {cfg.tile}")
    elif cfg.tile is not None:
        finding("config carries a temporal tile but the kernel has no "
                "aggregation plan", severity="warning")
    return out


def _check_spatial(kernel: KernelSchedule) -> list[AuditFinding]:
    """Table 3 legality for every spatially sliced dimension."""
    out: list[AuditFinding] = []
    smg = kernel.smg
    for dim in kernel.spatial_dims:
        if dim not in smg.dims:
            out.append(AuditFinding(
                "spatial", kernel.name,
                f"sliced dim {dim!r} is not an SMG dimension"))
            continue
        blocking = smg.blocking_mappings_for_spatial(dim)
        if blocking:
            descr = "; ".join(m.describe() for m in blocking[:3])
            out.append(AuditFinding(
                "spatial", kernel.name,
                f"dim {dim!r} is spatially sliced but carries blocking "
                f"mapping(s): {descr}"))
        missing = [it.name for it in smg.iteration_spaces()
                   if not it.has_dim(dim)]
        if missing:
            out.append(AuditFinding(
                "spatial", kernel.name,
                f"dim {dim!r} is sliced but iteration space(s) "
                f"{missing} do not extend along it (blocks would "
                f"re-execute their work)", severity="warning"))
    return out


def _check_resources(kernel: KernelSchedule,
                     rc: ResourceConfig) -> list[AuditFinding]:
    """Algorithm 1's checkRsrc, re-run on the *chosen* configuration."""
    try:
        cfg = kernel.effective_config()
    except ValueError:
        return []  # already reported by the config check
    try:
        # The auditor's own footprint, from the target's spec: nothing the
        # compiler computed is reused.
        res = BlockFootprint(kernel).estimate(cfg, rc)
    except (KeyError, ValueError) as exc:
        return [AuditFinding("resources", kernel.name,
                             f"resource estimation failed: {exc}")]
    out: list[AuditFinding] = []
    if res.smem_bytes > rc.smem_per_block:
        out.append(AuditFinding(
            "resources", kernel.name,
            f"shared memory over budget under {cfg.describe()}: "
            f"{res.smem_bytes} > {rc.smem_per_block} bytes"))
    if res.reg_bytes > rc.regs_per_block:
        out.append(AuditFinding(
            "resources", kernel.name,
            f"register file over budget under {cfg.describe()}: "
            f"{res.reg_bytes} > {rc.regs_per_block} bytes"))
    return out


def _check_memory(kernel: KernelSchedule) -> list[AuditFinding]:
    return [AuditFinding("memory", kernel.name, msg)
            for msg in check_memory_plan(kernel)]


def _check_uta(kernel: KernelSchedule) -> list[AuditFinding]:
    """Section 5.3 completeness of the temporal aggregation plan."""
    plan = kernel.plan
    if plan is None:
        return []
    out: list[AuditFinding] = []

    def finding(msg: str) -> None:
        out.append(AuditFinding("uta", kernel.name, msg))

    graph = plan.graph
    try:
        topo = graph.topological_ops()
    except Exception as exc:  # malformed rewritten graph
        finding(f"execution graph is not a DAG: {exc}")
        return out

    expected_stage_ops = [op for op in topo if plan.dim in op.reduce_dims]
    expected_names = [op.name for op in expected_stage_ops]
    actual_names = [s.op_name for s in plan.stages]
    if expected_names != actual_names:
        missing = [n for n in expected_names if n not in actual_names]
        extra = [n for n in actual_names if n not in expected_names]
        if missing:
            finding(f"reduction op(s) {missing} reduce over sliced dim "
                    f"{plan.dim!r} but have no aggregation stage")
        if extra:
            finding(f"stage(s) {extra} do not correspond to a reduction "
                    f"over {plan.dim!r}")
        if not missing and not extra:
            finding(f"stage order {actual_names} does not match the "
                    f"dependency order {expected_names}")
        return out

    # Every stage may only re-normalise with aggregates of earlier stages.
    earlier: set[str] = set()
    for stage in plan.stages:
        illegal = set(stage.update.referenced_aggs()) - earlier
        if illegal:
            finding(f"stage {stage.op_name!r} update references aggregates "
                    f"{sorted(illegal)} that are not earlier in the chain")
        earlier.add(stage.output)

    # Re-synthesise the update functions independently and compare: a
    # dropped or doctored update function is exactly what the executors
    # cannot detect at runtime (the paper's section 4.3 derivation).
    try:
        expected_updates = synthesize_update_functions(
            graph, plan.dim, expected_stage_ops)
    except UTAError as exc:
        finding(f"chain along {plan.dim!r} is not UTA-synthesisable, yet "
                f"the kernel was temporally sliced: {exc}")
        return out
    for stage, expected in zip(plan.stages, expected_updates):
        if stage.update != expected:
            finding(f"stage {stage.op_name!r} update function "
                    f"{stage.update.describe()!r} differs from the "
                    f"re-derived {expected.describe()!r}")

    # Pass-1/pass-2 partition must cover every kernel output.
    tile_set = set(plan.tile_op_names)
    stage_outputs = set(plan.stage_outputs)
    producers = {op.output: op.name for op in graph.ops}
    for t in graph.output_tensors:
        if t in stage_outputs:
            continue
        prod = producers.get(t)
        if prod is None:
            finding(f"output tensor {t!r} has no producing op")
        elif prod not in plan.pass2_op_names:
            finding(f"output tensor {t!r} is neither an aggregate nor "
                    f"produced by a pass-2 op")
    # Pass 1 must contain every ancestor of the stage outputs.
    needed = set(stage_outputs)
    for op in reversed(topo):
        if op.output in needed:
            if op.name not in tile_set:
                finding(f"op {op.name!r} feeds an aggregation stage but is "
                        f"missing from the pass-1 tile loop")
            needed.update(op.inputs)
    for name in list(plan.tile_op_names) + list(plan.pass2_op_names):
        try:
            graph.op(name)
        except KeyError:
            finding(f"plan references unknown op {name!r}")
    return out


def _check_smg(kernel: KernelSchedule) -> list[AuditFinding]:
    out: list[AuditFinding] = []
    try:
        kernel.smg.validate()
    except SMGError as exc:
        out.append(AuditFinding("smg", kernel.name, str(exc)))
    # The execution graph (post-rewrite when UTA applies) must itself lift
    # to a structurally valid SMG — the rewrites may not corrupt it.
    if kernel.plan is not None:
        try:
            build_smg(kernel.plan.graph, name=f"{kernel.name}@audit").validate()
        except Exception as exc:
            out.append(AuditFinding(
                "smg", kernel.name,
                f"rewritten execution graph fails SMG validation: {exc}"))
    return out


def audit_kernel(kernel: KernelSchedule,
                 rc: ResourceConfig) -> list[AuditFinding]:
    """Run every auditor check on one kernel schedule."""
    if kernel.meta.get("barrier"):
        # Pure data movement: no on-chip residency, no plan, no placement.
        return []
    findings: list[AuditFinding] = []
    findings.extend(_check_config(kernel))
    findings.extend(_check_smg(kernel))
    findings.extend(_check_spatial(kernel))
    findings.extend(_check_resources(kernel, rc))
    findings.extend(_check_memory(kernel))
    findings.extend(_check_uta(kernel))
    return findings


def audit_program(program: ProgramSchedule, target,
                  name: str | None = None) -> AuditReport:
    """Audit every kernel of a compiled program schedule.

    Args:
        program: the schedule to audit.
        target: a :class:`~repro.hw.specs.GPUSpec` or a raw
            :class:`~repro.core.resources.ResourceConfig`.
    """
    rc, target_name = _resolve_rc(target)
    report = AuditReport(program=name or program.name, target=target_name)
    for kernel in program.kernels:
        if kernel.meta.get("barrier"):
            report.kernels_skipped += 1
            continue
        report.kernels_audited += 1
        report.findings.extend(audit_kernel(kernel, rc))
    return report


def audit_model(model, target) -> AuditReport:
    """Audit a :class:`~repro.core.compiler.CompiledModel` (every unique
    subprogram schedule; occurrences do not change the static audit)."""
    rc, target_name = _resolve_rc(target)
    report = AuditReport(program=model.name, target=target_name)
    for sub in model.subprograms:
        sub_report = audit_program(sub.schedule, rc,
                                   name=sub.schedule.name)
        report.findings.extend(sub_report.findings)
        report.kernels_audited += sub_report.kernels_audited
        report.kernels_skipped += sub_report.kernels_skipped
    return report


# ----------------------------------------------------------------------
# Seeded mutation self-test: prove the auditor fires
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class SelftestResult:
    mutation: str
    applied: bool          # a mutation site existed in the program
    flagged: bool          # the auditor produced an error finding
    checks_fired: tuple[str, ...] = ()

    @property
    def ok(self) -> bool:
        return (not self.applied) or self.flagged


def _mutate_drop_update_function(program: ProgramSchedule) -> bool:
    """Replace the first non-identity update function with the identity —
    the classic silent UTA miscompile (stale partials never re-normalised)."""
    from .update_functions import UpdateFunction
    from .temporal_slicer import ReductionStage

    for kernel in program.kernels:
        if kernel.plan is None:
            continue
        for i, stage in enumerate(kernel.plan.stages):
            if not stage.update.is_identity:
                kernel.plan.stages[i] = ReductionStage(
                    stage.op_name, stage.output, stage.combiner,
                    UpdateFunction(stage.output, (), ()))
                return True
    return False


def _mutate_drop_stage(program: ProgramSchedule) -> bool:
    """Remove the last aggregation stage: its reduction silently returns
    only the final tile's partial."""
    for kernel in program.kernels:
        if kernel.plan is not None and kernel.plan.stages:
            kernel.plan.stages.pop()
            return True
    return False


def _mutate_inflate_config(program: ProgramSchedule) -> bool:
    """Blow the chosen configuration up to whole-extent blocks and tiles,
    exactly the schedules checkRsrc exists to reject."""
    for kernel in program.kernels:
        if kernel.meta.get("barrier") or not kernel.spatial_dims:
            continue
        block = tuple((d, kernel.smg.dim_size(d))
                      for d in kernel.spatial_dims)
        tile = (kernel.smg.dim_size(kernel.plan.dim)
                if kernel.plan is not None else None)
        kernel.config = ScheduleConfig(block=block, tile=tile)
        return True
    return False


def _mutate_misplace_input(program: ProgramSchedule) -> bool:
    """Claim a global input lives in shared memory (illegal per 5.4)."""
    for kernel in program.kernels:
        if kernel.meta.get("barrier") or not kernel.memory_levels:
            continue
        for t in kernel.exec_graph.input_tensors:
            if t in kernel.memory_levels:
                kernel.memory_levels[t] = "shared"
                return True
    return False


def _mutate_slice_blocked_dim(program: ProgramSchedule) -> bool:
    """Spatially slice the temporal (reduction-carrying) dimension —
    forbidden by Table 3; blocks would race on the aggregation."""
    for kernel in program.kernels:
        if kernel.plan is None:
            continue
        tdim = kernel.plan.dim
        kernel.spatial_dims = tuple(kernel.spatial_dims) + (tdim,)
        if kernel.config is not None:
            kernel.config = ScheduleConfig(
                block=tuple(kernel.config.block) + ((tdim, 1),),
                tile=kernel.config.tile)
        return True
    return False


#: Name -> mutator; each mutator edits the program in place and returns
#: whether a mutation site existed.
SEEDED_MUTATIONS = {
    "drop-update-function": _mutate_drop_update_function,
    "drop-reduction-stage": _mutate_drop_stage,
    "inflate-config-past-budget": _mutate_inflate_config,
    "misplace-input-to-shared": _mutate_misplace_input,
    "slice-blocked-dimension": _mutate_slice_blocked_dim,
}


def run_selftest(program: ProgramSchedule, target) -> list[SelftestResult]:
    """Apply each seeded mutation to a deep copy of ``program`` and check
    the auditor flags it.  The unmutated program must audit clean for the
    self-test to be meaningful — callers should assert that separately."""
    rc, _ = _resolve_rc(target)
    results: list[SelftestResult] = []
    for name, mutate in SEEDED_MUTATIONS.items():
        mutated = copy.deepcopy(program)
        applied = mutate(mutated)
        if not applied:
            results.append(SelftestResult(name, applied=False, flagged=False))
            continue
        report = audit_program(mutated, rc, name=f"{program.name}+{name}")
        fired = tuple(sorted({f.check for f in report.errors}))
        results.append(SelftestResult(name, applied=True,
                                      flagged=not report.ok,
                                      checks_fired=fired))
    return results
