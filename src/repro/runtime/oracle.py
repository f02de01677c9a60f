"""N-way differential oracle: engines vs the unfused reference.

The repository ships three independent ways to evaluate a tensor program —
the unfused per-op reference (:func:`~repro.runtime.kernels.execute_graph_reference`),
the schedule interpreter (:func:`~repro.runtime.executor.execute_schedule`)
and the compiled engine (:func:`~repro.runtime.compiled.execute_compiled`).
The oracle runs one graph through all of them on the same deterministic
feeds and compares each engine's outputs against the reference with
NaN-safe, dtype-aware tolerances:

* a NaN in an engine output where the reference is finite is an error, not
  a silently-passing comparison (``max(0.0, nan)`` is the bug class this
  module exists to kill — Python's ``max`` returns its *first* argument
  when the second is NaN);
* NaN/inf positions that *agree* with the reference contribute zero error
  (both engines saturating on the same overflow is parity, not a bug);
* tolerances widen with the execution dtype and scale with the magnitude
  of the reference output.

On a fuzz failure, :func:`shrink_to_reproducer` greedily deletes operators
while the failure persists, producing a minimal failing graph that
:func:`save_reproducer` serialises to JSON for a CI artifact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.serialize import graph_from_dict, graph_to_dict
from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from .compiled import execute_compiled
from .dtypes import resolve_dtype
from .executor import execute_schedule
from .kernels import execute_graph_reference, random_feeds

#: Max-abs-error tolerance per execution dtype, for unit-magnitude outputs.
#: bfloat16 has an 8-bit mantissa (inputs rounded to ~2^-9 relative), so
#: its tolerance is the widest even though it computes in float32.
DTYPE_TOLERANCES = {
    "float64": 1e-8,
    "float32": 2e-4,
    "float16": 2e-2,
    "bfloat16": 4e-2,
}


def tolerance_for(dtype, reference: dict[str, np.ndarray] | None = None,
                  ) -> float:
    """Dtype-aware tolerance, scaled by the reference output magnitude.

    Low-precision error is relative: an fp32 GEMM over a few hundred terms
    of O(1) values accumulates absolute error proportional to the result's
    magnitude, so the unit tolerance is multiplied by
    ``max(1, max |reference|)`` (ignoring non-finite reference entries).
    """
    if isinstance(dtype, str) and dtype in ("bfloat16", "bf16"):
        base = DTYPE_TOLERANCES["bfloat16"]
    else:
        base = DTYPE_TOLERANCES[np.dtype(dtype).name]
    scale = 1.0
    if reference:
        for arr in reference.values():
            finite = np.asarray(arr)[np.isfinite(arr)]
            if finite.size:
                scale = max(scale, float(np.max(np.abs(finite))))
    return base * scale


def nan_safe_max_abs_err(got: np.ndarray, expected: np.ndarray) -> float:
    """Max absolute error that *propagates* non-finite disagreement.

    Returns NaN when the NaN masks differ or an inf entry disagrees in
    position/sign, so that any ``err <= tol`` comparison is False and the
    caller's ``not (worst <= tol)`` gate fires.  Positions where both
    arrays hold the same non-finite value contribute zero.
    """
    got = np.asarray(got, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if got.shape != expected.shape:
        return float("nan")
    got_nan = np.isnan(got)
    exp_nan = np.isnan(expected)
    if not np.array_equal(got_nan, exp_nan):
        return float("nan")
    got_inf = np.isinf(got)
    exp_inf = np.isinf(expected)
    if not np.array_equal(got_inf, exp_inf):
        return float("nan")
    if np.any(got_inf) and not np.array_equal(got[got_inf], expected[exp_inf]):
        return float("nan")
    finite = ~(got_nan | got_inf)
    if not np.any(finite):
        return 0.0
    return float(np.max(np.abs(got[finite] - expected[finite])))


def outputs_match(got: dict, ref: dict, tol: float) -> bool:
    """True iff every tensor of ``ref`` is in ``got``, fully finite and
    within ``tol`` of it.  The ``not (err <= tol)`` form makes a NaN
    error (non-finite disagreement, shape mismatch) a mismatch too."""
    for name, expected in ref.items():
        arr = got.get(name)
        if arr is None or not np.isfinite(arr).all():
            return False
        if not (nan_safe_max_abs_err(arr, expected) <= tol):
            return False
    return True


@dataclass(frozen=True)
class EngineRun:
    """One engine's outcome against the reference."""

    engine: str            # "interpreter" | "compiled"
    worst: float           # NaN-safe max abs error across all outputs
    tol: float = float("inf")  # tolerance this run was judged against
    per_output: tuple[tuple[str, float], ...] = ()
    error: str | None = None   # exception text when the engine crashed

    @property
    def ok(self) -> bool:
        # NaN-propagating gate: `worst <= tol` is False for NaN, and a
        # finite error above tolerance is a failure, not a pass.  (An
        # earlier version only checked ``not isnan(worst)``, silently
        # passing any finite disagreement however large.)
        return self.error is None and bool(self.worst <= self.tol)


@dataclass
class OracleResult:
    """Outcome of one differential test."""

    graph: str
    target: str
    dtype: str
    tol: float
    runs: list[EngineRun] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.runs)

    @property
    def worst(self) -> float:
        worsts = [r.worst for r in self.runs if r.error is None]
        if any(np.isnan(w) for w in worsts):
            return float("nan")
        return max(worsts, default=0.0)

    def render(self) -> str:
        status = "OK" if self.ok else "MISMATCH"
        lines = [f"oracle {self.graph} on {self.target} "
                 f"[{self.dtype}, tol={self.tol:.3g}]: {status}"]
        for r in self.runs:
            if r.error is not None:
                lines.append(f"  {r.engine}: CRASH — {r.error}")
            else:
                verdict = "ok" if r.worst <= self.tol else "FAIL"
                lines.append(f"  {r.engine}: max|err|={r.worst:.3g} {verdict}")
        return "\n".join(lines)


def _schedule_for(graph: DataflowGraph, gpu):
    """Compile ``graph`` for ``gpu``, via program partitioning when the
    graph contains layout barriers (build_smg rejects those directly)."""
    if any(op.is_barrier for op in graph.ops):
        from ..ir.program import program_from_graph
        from ..pipeline import compile_model_for

        return compile_model_for(program_from_graph(graph), gpu
                                 ).expanded_schedule()
    from ..pipeline import compile_for

    return compile_for(graph, gpu)[0]


def differential_test(graph: DataflowGraph, gpu, *, seed: int = 0,
                      dtype=np.float64, tol: float | None = None,
                      engines: tuple[str, ...] = ("interpreter", "compiled"),
                      schedule=None, feeds=None) -> OracleResult:
    """Run ``graph`` through every engine and compare with the reference.

    The reference is always evaluated in float64 — it is the oracle, not a
    participant; engines run at ``dtype``.  ``schedule`` and ``feeds`` can
    be injected for testing doctored schedules.
    """
    if feeds is None:
        feeds = random_feeds(graph, seed=seed)
    ref = execute_graph_reference(graph, feeds, dtype=np.float64)
    if tol is None:
        tol = tolerance_for(dtype, ref)
    if schedule is None:
        schedule = _schedule_for(graph, gpu)

    runners: dict[str, Callable] = {
        "interpreter": lambda: execute_schedule(schedule, feeds, dtype=dtype),
        "compiled": lambda: execute_compiled(schedule, feeds, dtype=dtype),
    }
    result = OracleResult(
        graph=graph.name, target=getattr(gpu, "name", str(gpu)),
        dtype=resolve_dtype(dtype)[1], tol=tol)
    for engine in engines:
        try:
            env = runners[engine]()
        except KeyError:
            raise ValueError(f"unknown engine {engine!r}") from None
        except Exception as exc:
            result.runs.append(EngineRun(
                engine, float("nan"), tol,
                error=f"{type(exc).__name__}: {exc}"))
            continue
        # The comparison itself runs under the same crash containment as
        # the engine: an env missing a reference output (or any comparison
        # blow-up) is recorded as that engine's failure, not raised as a
        # raw KeyError out of the oracle.
        per_output = []
        run_error = None
        for name, expected in ref.items():
            if name not in env:
                run_error = (f"MissingOutput: engine {engine!r} produced "
                             f"no tensor {name!r}")
                break
            try:
                err = nan_safe_max_abs_err(env[name], expected)
            except Exception as exc:
                run_error = (f"{type(exc).__name__} comparing "
                             f"{name!r}: {exc}")
                break
            per_output.append((name, err))
        if run_error is not None:
            result.runs.append(EngineRun(engine, float("nan"), tol,
                                         tuple(per_output), error=run_error))
            continue
        errs = [e for _n, e in per_output]
        worst = float("nan") if any(np.isnan(e) for e in errs) \
            else max(errs, default=0.0)
        result.runs.append(EngineRun(engine, worst, tol, tuple(per_output)))
    return result


# ----------------------------------------------------------------------
# Shrinking: minimal failing reproducers for fuzz findings
# ----------------------------------------------------------------------


def _subgraph_without(graph: DataflowGraph, removed: set[str],
                      ) -> DataflowGraph | None:
    """The graph with ops ``removed`` deleted, plus every op that
    transitively depended on their outputs.  None when nothing remains."""
    dead_tensors: set[str] = set()
    kept: list[Op] = []
    for op in graph.topological_ops():
        if op.name in removed or any(t in dead_tensors for t in op.inputs):
            dead_tensors.add(op.output)
            continue
        kept.append(op)
    if not kept:
        return None
    sub = DataflowGraph(graph.name, dims=graph.dims.copy())
    referenced: list[str] = []
    for op in kept:
        for t in (*op.inputs, op.output):
            if t not in referenced:
                referenced.append(t)
    for t in referenced:
        sub.tensors[t] = graph.tensors[t]
    sub.ops = list(kept)
    try:
        sub.validate()
    except Exception:
        return None
    return sub


def shrink_graph(graph: DataflowGraph,
                 failing: Callable[[DataflowGraph], bool],
                 max_rounds: int = 10) -> DataflowGraph:
    """Greedy 1-minimal shrink: repeatedly delete any op (with its dependent
    cone) while ``failing`` still holds on the result.

    ``failing`` must be True for ``graph`` itself; the returned graph also
    satisfies it and no single further op removal preserves the failure.
    """
    current = graph
    for _ in range(max_rounds):
        progressed = False
        for op in reversed(current.topological_ops()):
            candidate = _subgraph_without(current, {op.name})
            if candidate is None or len(candidate.ops) >= len(current.ops):
                continue
            try:
                still_failing = failing(candidate)
            except Exception:
                # A candidate that crashes the predicate is not a cleaner
                # reproducer of *this* failure; skip it.
                continue
            if still_failing:
                current = candidate
                progressed = True
                break
        if not progressed:
            return current
    return current


def shrink_to_reproducer(graph: DataflowGraph, gpu, *, seed: int = 0,
                         dtype=np.float64,
                         tol: float | None = None) -> DataflowGraph:
    """Shrink a graph that fails :func:`differential_test` to a minimal one."""

    def failing(g: DataflowGraph) -> bool:
        return not differential_test(g, gpu, seed=seed, dtype=dtype,
                                     tol=tol).ok

    if not failing(graph):
        raise ValueError(f"graph {graph.name!r} does not fail the oracle")
    return shrink_graph(graph, failing)


# ----------------------------------------------------------------------
# Reproducer (de)serialisation — the CI failure artifact
# ----------------------------------------------------------------------


def save_reproducer(graph: DataflowGraph, path, *,
                    meta: dict | None = None) -> None:
    payload = {"repro_version": 1, "meta": meta or {},
               "graph": graph_to_dict(graph)}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)


def load_reproducer(path) -> tuple[DataflowGraph, dict]:
    with open(path) as fh:
        payload = json.load(fh)
    return graph_from_dict(payload["graph"]), payload.get("meta", {})
