"""The SpaceFusion compiler: the full pipeline of Figure 9 (section 5).

``SpaceFusionCompiler.compile_graph`` drives the two-phase design:

* **Program preprocessing** — the input graph is assumed barrier-free (use
  :func:`repro.ir.program.partition_at_barriers` for whole models); the
  fused SMG is constructed via dimension alignment.
* **Auto-scheduling** — alternates between the *slicing* state
  (resource-aware slicing, Algorithm 1) and the *partitioning* state
  (Algorithm 2 + section 5.3 candidate exploration) until every SMG has an
  efficient schedule, then auto-tunes block configurations against the
  injected timing function (the device cost model in this reproduction;
  real kernel timings in the paper).

The timing function is injected rather than imported so the core stays
independent of the hardware substrate; see :mod:`repro.pipeline` for the
pre-wired convenience entry points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from ..ir.traits import is_compute_intensive
from ..obs import get_tracer, timed_phase
from ..ir.program import Subprogram, TensorProgram, partition_at_barriers
from .autotuner import DEFAULT_ALPHA, DefaultTuner, TuneResult, pick_best
from .builder import build_smg
from .memory_planner import apply_memory_plan
from .partition import partition_round, subgraphs_from_ops
from .resources import ResourceConfig, enumerate_configs
from .schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from .scheduler import SlicingOptions, SlicingResult, resource_aware_slicing
from .smg import SMGError


class CompileError(Exception):
    """Raised when a graph cannot be compiled at all."""


@dataclass
class FusionOptions:
    """Compiler feature switches.

    The defaults are full SpaceFusion.  The ablation variants of Figure 16a
    and the capability-limited baseline compilers of section 6.6 are all
    expressed as restrictions:

    * Base(SS):    ``enable_temporal=False, auto_tune=False``
    * Base+AS:     ``enable_temporal=False``
    * Base+TS:     ``auto_tune=False``
    * AStitch-like: ``fuse_compute_intensive=False``
    * Welder-like: ``enable_uta=False``
    """

    enable_temporal: bool = True
    enable_uta: bool = True
    fuse_compute_intensive: bool = True
    auto_tune: bool = True
    explore_partition_candidates: bool = True
    alpha: float = DEFAULT_ALPHA
    max_configs: int = 24

    def slicing_options(self) -> SlicingOptions:
        return SlicingOptions(
            enable_temporal=self.enable_temporal,
            enable_uta=self.enable_uta,
            max_configs=self.max_configs,
        )


@dataclass
class CompileStats:
    """Accounting for the compilation-time analysis (Tables 4/5)."""

    phase_times: dict[str, float] = field(default_factory=dict)
    #: Simulated auto-tuning campaign wall-clock (test runs on the device).
    tuning_wall_time: float = 0.0
    configs_evaluated: int = 0
    configs_quit_early: int = 0
    kernels: int = 0
    partition_rounds: int = 0

    def add_phase(self, name: str, seconds: float) -> None:
        self.phase_times[name] = self.phase_times.get(name, 0.0) + seconds

    def merge(self, other: "CompileStats") -> None:
        for k, v in other.phase_times.items():
            self.add_phase(k, v)
        self.tuning_wall_time += other.tuning_wall_time
        self.configs_evaluated += other.configs_evaluated
        self.configs_quit_early += other.configs_quit_early
        self.kernels += other.kernels
        self.partition_rounds += other.partition_rounds

    @property
    def total_time(self) -> float:
        return sum(self.phase_times.values()) + self.tuning_wall_time


@dataclass
class CompiledSubprogram:
    schedule: ProgramSchedule
    stats: CompileStats
    occurrences: int = 1


@dataclass
class CompiledModel:
    """A compiled tensor program: one schedule per unique subprogram."""

    name: str
    subprograms: list[CompiledSubprogram]
    stats: CompileStats

    def expanded_schedule(self) -> ProgramSchedule:
        """Full execution order with repeated subprograms unrolled."""
        full = ProgramSchedule(self.name)
        for sub in self.subprograms:
            for _ in range(sub.occurrences):
                full.kernels.extend(sub.schedule.kernels)
        outs = sorted({t for sub in self.subprograms
                       for t in str(sub.schedule.meta.get("outputs", "")
                                    ).split(",") if t})
        if outs:
            full.meta["outputs"] = ",".join(outs)
        return full


TimingFn = Callable[[KernelSchedule, ScheduleConfig], float]


def schedule_single_op_kernels(graph: DataflowGraph, rc: ResourceConfig,
                               timing_fn: TimingFn | None = None,
                               efficiency: float = 1.0,
                               options: FusionOptions | None = None,
                               tuner: DefaultTuner | None = None,
                               ) -> list[KernelSchedule]:
    """Schedule every operator of ``graph`` as its own kernel.

    This is both the compiler's last-resort fallback and the building block
    of the unfused baselines.  Reduction-free dims parallelise spatially;
    kernels whose SMG has no spatially sliceable dimension degrade to a
    single-block launch.
    """
    options = options or FusionOptions()
    tuner = tuner or DefaultTuner()
    kernels: list[KernelSchedule] = []
    for sub in subgraphs_from_ops(graph, [
            (f"{graph.name}.{op.name}", [op])
            for op in graph.topological_ops()]):
        smg = build_smg(sub)
        result = resource_aware_slicing(smg, rc, options.slicing_options())
        if result.candidates:
            kernel = result.candidates[0]
        else:
            kernel = KernelSchedule(
                name=sub.name, smg=smg, spatial_dims=(),
                search_space=enumerate_configs(
                    KernelSchedule(sub.name, smg, ()), rc) or
                [ScheduleConfig.of(block=())],
                meta={"slicing": "single-block"})
            apply_memory_plan(kernel)
        kernel.meta["efficiency"] = efficiency
        if timing_fn is not None and len(kernel.search_space) > 1:
            with get_tracer().span("tuning", category="compile",
                                   kernel=kernel.name) as sp:
                res = tuner.tune(kernel, timing_fn)
                sp.note(modeled_wall_s=res.tuning_wall_time,
                        configs=res.configs_evaluated,
                        quit_early=res.configs_quit_early)
        else:
            kernel.config = kernel.search_space[0] if kernel.search_space \
                else ScheduleConfig.of(block=())
        kernels.append(kernel)
    return kernels


def _cut(graph: DataflowGraph, groups: list[list[Op]],
         tag: str) -> list[DataflowGraph]:
    return subgraphs_from_ops(graph, [(f"{graph.name}.{tag}{i}", ops)
                                      for i, ops in enumerate(groups)])


def _contraction_segments(graph: DataflowGraph) -> list[list[Op]]:
    """Group into contraction-headed epilogue runs and MI segments.

    Each contraction starts a segment absorbing its element-wise
    epilogue; a non-contraction *reduction* closes the epilogue and
    starts a memory-intensive segment (a GEMM fused with a trailing
    normalisation would forfeit the GEMM's output-dimension
    parallelism, which is exactly what this alternative avoids).
    """
    groups: list[list[Op]] = []
    run: list[Op] = []
    run_has_contraction = False
    for op in graph.topological_ops():
        if op.is_contraction:
            if run:
                groups.append(run)
            run = [op]
            run_has_contraction = True
        elif op.is_reduction and run_has_contraction:
            groups.append(run)
            run = [op]
            run_has_contraction = False
        else:
            run.append(op)
    if run:
        groups.append(run)
    return groups


def _split_at_compute_intensive(graph: DataflowGraph) -> list[list[Op]]:
    """AStitch-style restriction: CI operators are fusion barriers."""
    groups: list[list[Op]] = []
    run: list[Op] = []
    for op in graph.topological_ops():
        if is_compute_intensive(op, graph.dims):
            if run:
                groups.append(run)
                run = []
            groups.append([op])
        else:
            run.append(op)
    if run:
        groups.append(run)
    return groups


class SpaceFusionCompiler:
    """End-to-end SpaceFusion auto-scheduler."""

    def __init__(self, rc: ResourceConfig, timing_fn: TimingFn,
                 options: FusionOptions | None = None,
                 tuner: DefaultTuner | None = None) -> None:
        self.rc = rc
        self.timing_fn = timing_fn
        self.options = options or FusionOptions()
        #: Tuning policy every campaign routes through.  The default is
        #: the paper's enumeration-with-early-quit; a TuneDB-backed
        #: :class:`repro.tune.GuidedTuner` replays stored winners and runs
        #: the same campaign on a miss, so winners are bitwise-identical.
        self.tuner = tuner or DefaultTuner()
        #: Census of distinct fusion patterns discovered (Table 6).
        self.fusion_patterns: dict[str, dict] = {}

    # ------------------------------------------------------------------
    # Entry points
    # ------------------------------------------------------------------

    def compile_graph(self, graph: DataflowGraph,
                      name: str | None = None,
                      ) -> tuple[ProgramSchedule, CompileStats]:
        """Compile one barrier-free graph into a kernel sequence."""
        stats = CompileStats()
        schedule = ProgramSchedule(name or graph.name)
        # Comma-joined string (not a tuple) so it survives the scalar-only
        # meta filter in serialize.schedule_to_json; the fused lowering
        # reads it to decide which tensors must escape the arena.
        schedule.meta["outputs"] = ",".join(sorted(graph.output_tensors))
        with get_tracer().span("compile", category="compile",
                               workload=schedule.name):
            self._compile_region(graph, schedule, stats)
        stats.kernels = len(schedule.kernels)
        for kernel in schedule.kernels:
            self._record_pattern(kernel.exec_graph, kernel)
        return schedule, stats

    def compile_subprogram(self, sub: Subprogram) -> CompiledSubprogram:
        """Compile one (possibly barrier) subprogram of a model program.

        This is the unit of work :meth:`compile_model` performs per unique
        subprogram.
        """
        if any(op.is_barrier for op in sub.graph.ops):
            sched = barrier_schedule(sub.graph)
            stats = CompileStats()
        else:
            sched, stats = self.compile_graph(sub.graph)
        return CompiledSubprogram(sched, stats, sub.occurrences)

    def compile_model(self, program: TensorProgram) -> CompiledModel:
        """Compile a model program; repeated subprograms compile once."""
        total = CompileStats()
        compiled: list[CompiledSubprogram] = []
        for sub in program.unique_subprograms():
            compiled.append(self.compile_subprogram(sub))
            total.merge(compiled[-1].stats)
        return CompiledModel(program.name, compiled, total)

    # ------------------------------------------------------------------
    # Auto-scheduling: slicing <-> partitioning states
    # ------------------------------------------------------------------

    def _compile_region(self, graph: DataflowGraph,
                        schedule: ProgramSchedule, stats: CompileStats,
                        explore_alternatives: bool = True) -> float:
        """Compile ``graph`` appending kernels to ``schedule``.

        Returns the modelled execution time of the appended kernels so
        partition candidates can be compared.
        """
        if not graph.ops:
            return 0.0
        if not self.options.fuse_compute_intensive:
            groups = _split_at_compute_intensive(graph)
            if len(groups) > 1:
                return sum(self._compile_region(part, schedule, stats)
                           for part in _cut(graph, groups, "g"))

        result = self._try_slice(graph, stats)
        if result.scheduled:
            best = self._tune_candidates(result.candidates, stats)
            best_kernels, best_time = [best.kernel], best.best_time
            # Candidate exploration (section 5.3 generalised): an overly
            # aggressive fusion of several compute-intensive operators can
            # lose to a less-fused schedule (e.g. wide-weight GEMM chains
            # whose weights every block would re-stream).  Compare against
            # the contraction-granular alternative and keep the winner —
            # this is the mechanism behind the paper fusing MLP stacks only
            # for N,K <= 256.  Its parts explore no further: each would
            # offer itself as its own alternative.
            n_contractions = sum(op.is_contraction for op in graph.ops)
            cuts = []
            if (explore_alternatives
                    and self.options.explore_partition_candidates
                    and n_contractions >= 1
                    and len(graph.ops) > n_contractions):
                cuts.append(_cut(graph, _contraction_segments(graph), "c"))
        else:
            # Partition state (section 5.2).
            stats.partition_rounds += 1
            with timed_phase("partitioning", stats.add_phase,
                             category="compile", graph=graph.name):
                candidates = partition_round(
                    graph, self._is_schedulable,
                    explore_candidates=self.options.explore_partition_candidates)
            cuts = [[g for g in (c.former, c.latter) if g is not None]
                    for c in candidates]
            if cuts:
                best_kernels, best_time = [], float("inf")
            else:
                best_kernels = schedule_single_op_kernels(
                    graph, self.rc, self.timing_fn, options=self.options,
                    tuner=self.tuner)
                best_time = sum(self.timing_fn(k, k.effective_config())
                                for k in best_kernels)

        # One candidate loop: a cut is priced by compiling its parts and
        # replaces the incumbent only when strictly faster, so a tie keeps
        # the fused kernel, and among cuts the earlier one.
        for parts in cuts:
            trial = ProgramSchedule(schedule.name)
            trial_stats = CompileStats()
            t = sum(self._compile_region(
                        part, trial, trial_stats,
                        explore_alternatives=not result.scheduled)
                    for part in parts)
            stats.merge(trial_stats)
            if t < best_time:
                best_kernels, best_time = trial.kernels, t
        schedule.kernels.extend(best_kernels)
        return best_time

    def _try_slice(self, graph: DataflowGraph, stats: CompileStats,
                   trace: bool = True) -> SlicingResult:
        try:
            with timed_phase("smg_build", stats.add_phase,
                             category="compile", enabled=trace,
                             graph=graph.name):
                smg = build_smg(graph)
        except SMGError as exc:
            raise CompileError(str(exc)) from exc
        result = resource_aware_slicing(smg, self.rc,
                                        self.options.slicing_options(),
                                        trace=trace)
        for phase, seconds in result.phase_times.items():
            stats.add_phase(phase, seconds)
        return result

    def _is_schedulable(self, graph: DataflowGraph) -> bool:
        # A probe, not a phase: its wall time lands in the enclosing
        # ``partitioning`` accounting, so it must not emit its own spans.
        throwaway = CompileStats()
        return self._try_slice(graph, throwaway, trace=False).scheduled

    def _tune_candidates(self, candidates: list[KernelSchedule],
                         stats: CompileStats) -> TuneResult:
        results = []
        for kernel in candidates:
            if self.options.auto_tune:
                with get_tracer().span("tuning", category="compile",
                                       kernel=kernel.name) as sp:
                    res = self.tuner.tune(
                        kernel, self.timing_fn, alpha=self.options.alpha)
                    sp.note(modeled_wall_s=res.tuning_wall_time,
                            configs=res.configs_evaluated,
                            quit_early=res.configs_quit_early)
                stats.tuning_wall_time += res.tuning_wall_time
                stats.configs_evaluated += res.configs_evaluated
                stats.configs_quit_early += res.configs_quit_early
            else:
                # Ablation: fixed expert configuration (mid-space heuristic).
                cfg = kernel.search_space[len(kernel.search_space) // 2]
                kernel.config = cfg
                res = TuneResult(kernel, cfg,
                                 self.timing_fn(kernel, cfg), 1, 0, 0.0)
            results.append(res)
        return pick_best(results)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------

    def _record_pattern(self, graph: DataflowGraph,
                        kernel: KernelSchedule) -> None:
        """Census entry for the fusion-pattern analysis (Table 6)."""
        from ..ir.traits import count_all_to_ones, graph_intensity

        kinds = tuple(sorted({op.kind for op in graph.ops}))
        topo = tuple(op.kind for op in graph.topological_ops())
        key = f"{kinds}|{topo}"
        if key not in self.fusion_patterns:
            self.fusion_patterns[key] = {
                "ops": len(graph.ops),
                "a2o_mappings": count_all_to_ones(graph),
                "intensity": graph_intensity(graph),
            }


def barrier_schedule(graph: DataflowGraph) -> ProgramSchedule:
    """Layout/shape subprograms run as standalone data-movement kernels."""
    sched = ProgramSchedule(graph.name)
    sched.meta["outputs"] = ",".join(sorted(graph.output_tensors))
    for op in graph.ops:
        sub = DataflowGraph(f"{graph.name}.{op.name}", dims=graph.dims)
        for t in (*op.inputs, op.output):
            sub.tensors.setdefault(t, graph.tensors[t])
        sub.ops.append(op)
        sched.add(build_barrier_kernel(sub))
    return sched


def build_barrier_kernel(graph: DataflowGraph) -> KernelSchedule:
    """A pass-through kernel for one layout op (pure data movement)."""
    from .smg import SMG
    from .spaces import DataSpace

    op = graph.ops[0]
    dims = tuple(dict.fromkeys(
        d for t in graph.tensors.values() for d in t.dims))
    smg = SMG(name=graph.name, dims=dims, registry=graph.dims, graph=graph)
    for tname, spec in graph.tensors.items():
        role = "output" if tname == op.output else "input"
        smg.spaces[tname] = DataSpace.of(tname, spec.dims, spec.dtype, role)
    return KernelSchedule(
        name=graph.name, smg=smg,
        spatial_dims=(),
        config=ScheduleConfig.of(block=()),
        meta={"slicing": "barrier", "barrier": True},
    )
