"""Compiled execution engine: lower a schedule once, execute it many times.

The schedule interpreter (:mod:`repro.runtime.executor`) re-derives the
spatial grid, re-slices every operand, and walks Python loops over blocks
and tiles on *every* call — fine for a correctness oracle, hopeless for a
serving hot path.  This module is the reproduction's analogue of handing
SMG schedules to Triton: a whole :class:`~repro.core.schedule.ProgramSchedule`
is **lowered once** into a single ``exec``-compiled callable
(:func:`repro.codegen.python_backend.generate_fused_program`) and reused
for every subsequent request.

One fused plan per program means:

* **no interpreter tail** — every kernel of the program lives in the same
  generated function; there is no per-kernel Python dispatch and no
  ``interp`` fallback kind.  Non-float64 programs lower exactly like
  float64 ones (the generated source is dtype-parametric; ``bfloat16``
  computes in float32 on the bfloat16 grid).
* **intermediates never escape** — cross-kernel tensors flow as Python
  locals backed by a per-plan :class:`~repro.codegen.python_backend.Arena`
  of reusable scratch buffers; only the program's outputs are published
  into the returned env.
* **bitwise parity by construction** — elementwise/reduce work collapses
  to whole-tensor slabs (slice-stable), while BLAS gemms replay the
  interpreter's per-block calls along their free dims (see
  :mod:`repro.codegen.matmul` for why that distinction matters).

Each kernel's segment of the plan is a
:class:`~repro.codegen.python_backend.LoweredKernel` record (kind
``vector`` / ``loopnest`` / ``barrier``, its source section and the block
grid it collapsed), so observability and schedule auditing keep their
per-kernel view.  An op the emitter cannot express fails the lowering
with :class:`LoweringError`; there is no per-kernel fallback.

A :class:`PlanCache` bounds the set of live :class:`CompiledProgram`
artifacts with an LRU keyed by **(schedule fingerprint, dtype token, dim
sizes)**; lowering, cache hits/misses, and execution are all visible as
:mod:`repro.obs` spans (category ``runtime``).
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from ..codegen.python_backend import (
    CodegenError,
    FusedProgram,
    LoweredKernel,
    _FusedEmitter,
    generate_fused_program,
)
from ..core.schedule import KernelSchedule, ProgramSchedule
from ..ir.ops import ceil_div
from ..obs import span as obs_span
from ..resilience import faults as _faults
from ..store import LRU
# bf16_round/resolve_dtype are re-exported: they used to live here and
# existing callers import them from this module.
from .dtypes import all_finite, bf16_round, resolve_dtype  # noqa: F401
from .dtypes import QUIET_SUM, sum_finite
from .executor import ExecutionError

#: Failpoints in the execute path (armed only by tests/chaos).
FP_EXECUTE = _faults.register("runtime.execute")
#: Behavioural failpoint: poisons the execution env with NaNs, modelling
#: a miscompiled plan (the UTA online-rescaling hazard) so the session's
#: quarantine path can be exercised deterministically.
FP_POISON = _faults.register("runtime.poison")


class LoweringError(Exception):
    """Raised when a schedule cannot be lowered to an executable plan."""


def outputs_finite(env: dict, tensors) -> bool:
    """True iff every named tensor in ``env`` is fully finite."""
    with np.errstate(**QUIET_SUM):      # once, not once per tensor
        return all(sum_finite(env[t]) for t in tensors)


# ----------------------------------------------------------------------
# Plan keys
# ----------------------------------------------------------------------


def schedule_fingerprint(program: ProgramSchedule) -> str:
    """Content hash of a program schedule (graphs, plans, configs).

    The key lives only in memory, so it hashes compact JSON, which the C
    encoder writes; the indented disk form would take the pure-Python one.
    """
    from ..core.serialize import schedule_to_dict

    payload = json.dumps(schedule_to_dict(program), sort_keys=True,
                         separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def plan_key(program: ProgramSchedule, dtype=np.float64,
             ) -> tuple[str, str, tuple]:
    """(schedule fingerprint, dtype token, dim sizes) — the cache key."""
    dims: set[tuple[str, int]] = set()
    for kernel in program.kernels:
        dims.update(kernel.exec_graph.dims.items())
    _compute, token = resolve_dtype(dtype)
    return (schedule_fingerprint(program), token, tuple(sorted(dims)))


def _grid_blocks(kernel: KernelSchedule) -> int:
    try:
        return kernel.grid_size()
    except ValueError:
        return 1


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------


@dataclass
class CompiledProgram:
    """A fully lowered program schedule, ready for repeated execution."""

    name: str
    key: tuple[str, str, tuple]
    kernels: list[LoweredKernel]
    dtype: np.dtype
    fused: FusedProgram | None = None
    dtype_token: str = ""
    lower_time_s: float = 0.0
    _executions: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock,
                                  repr=False)

    def __post_init__(self) -> None:
        if not self.dtype_token:
            self.dtype_token = np.dtype(self.dtype).name

    @property
    def executions(self) -> int:
        with self._lock:
            return self._executions

    @property
    def outputs(self) -> tuple[str, ...]:
        return self.fused.outputs if self.fused is not None else ()

    def execute(self, feeds: dict[str, np.ndarray],
                ) -> dict[str, np.ndarray]:
        """Run the fused plan; returns an env holding the feeds plus the
        program's published outputs (intermediates never escape)."""
        with obs_span("compiled_execute", category="runtime",
                      program=self.name, kernels=len(self.kernels)):
            _faults.fire(FP_EXECUTE)
            if self.dtype_token == "bfloat16":
                env = {k: bf16_round(np.asarray(v, dtype=self.dtype))
                       for k, v in feeds.items()}
            else:
                env = {k: np.asarray(v, dtype=self.dtype)
                       for k, v in feeds.items()}
            try:
                self.fused.fn(env)
            except KeyError as exc:
                raise ExecutionError(
                    f"program {self.name!r}: missing global tensor "
                    f"{exc.args[0]!r}") from exc
            if _faults.triggered(FP_POISON):
                for name, arr in env.items():
                    if np.issubdtype(np.asarray(arr).dtype, np.floating):
                        env[name] = np.full_like(arr, np.nan)
        with self._lock:
            self._executions += 1
        return env

    def __call__(self, feeds: dict[str, np.ndarray],
                 ) -> dict[str, np.ndarray]:
        return self.execute(feeds)

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for lk in self.kernels:
            counts[lk.kind] = counts.get(lk.kind, 0) + 1
        return counts

    def describe(self) -> str:
        lines = [f"compiled program {self.name}: {len(self.kernels)} "
                 f"kernel(s) in one fused plan, dtype={self.dtype_token}, "
                 f"lowered in {self.lower_time_s * 1e3:.2f}ms"]
        for lk in self.kernels:
            collapsed = (f" (collapsed {lk.grid_blocks} blocks)"
                         if lk.kind == "vector" and lk.grid_blocks > 1
                         else "")
            lines.append(f"  {lk.name}: {lk.kind}{collapsed}")
        return "\n".join(lines)


def lower_program(program: ProgramSchedule, dtype=np.float64,
                  key: tuple | None = None) -> CompiledProgram:
    """Lower a program schedule into one fused plan (uncached)."""
    compute, token = resolve_dtype(dtype)
    t0 = time.perf_counter()
    with obs_span("lower", category="runtime", program=program.name,
                  kernels=program.num_kernels, dtype=token):
        try:
            fused = generate_fused_program(program, compute)
        except CodegenError as exc:
            raise LoweringError(str(exc)) from exc
        for seg, k in zip(fused.segments, program.kernels):
            seg.grid_blocks = _grid_blocks(k)
    return CompiledProgram(
        name=program.name,
        key=key if key is not None else plan_key(program, dtype),
        kernels=fused.segments, dtype=compute, fused=fused, dtype_token=token,
        lower_time_s=time.perf_counter() - t0)


# ----------------------------------------------------------------------
# The host plan
# ----------------------------------------------------------------------


def host_counts(kernel: KernelSchedule, config) -> tuple[int, int]:
    """What a fused plan of ``kernel`` at ``config`` costs the host: (tile
    loop trips, blocked-gemm calls per trip or 1 without a blocked gemm)."""
    graph = kernel.exec_graph
    sizes = {d: graph.dims.size(d) for d in graph.dims.names()}
    blocked = [_FusedEmitter.blocked_dims(kernel, op, sizes, config)
               for op in graph.ops if op.kind == "matmul"]
    calls = sum(math.prod(ceil_div(sizes[d], b) for d, b in dims)
                for dims in blocked if dims)
    return kernel.num_intra_blocks(config), calls or 1


def host_plan(program: ProgramSchedule) -> tuple[ProgramSchedule, list]:
    """``program`` with each kernel at the config of its search space with
    the fewest :func:`host_counts` (a tie keeps the GPU config), and a
    record per tunable kernel of both configs and their counts."""
    kernels, report = [], []
    for k in program.kernels:
        if k.search_space:
            gpu = k.effective_config()
            counts = {c: host_counts(k, c) for c in {*k.search_space, gpu}}
            host = min(k.search_space, key=counts.__getitem__)
            host = gpu if counts[host] == counts[gpu] else host
            report.append({"kernel": k.name, "gpu": gpu.describe(),
                           "host": host.describe(), "gpu_counts": counts[gpu],
                           "host_counts": counts[host]})
            k = replace(k, config=host)
        kernels.append(k)
    return replace(program, kernels=kernels), report


# ----------------------------------------------------------------------
# Plan cache
# ----------------------------------------------------------------------


class PlanCache:
    """Bounded LRU of :class:`CompiledProgram` artifacts.

    Keys are ``plan_key`` tuples, so the same schedule lowered for two
    dtypes (or re-instantiated at different dim sizes) occupies distinct
    entries.  Concurrent misses on the same key may lower twice (lowering
    is milliseconds); the insert is last-writer-wins and both callers get
    a correct artifact.
    """

    def __init__(self, capacity: int = 64) -> None:
        self._entries = LRU(capacity, on_evict=self._count_eviction)
        self._lock = threading.Lock()       # guards the counters
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.quarantined = 0

    def _count_eviction(self, _key, _plan) -> None:
        with self._lock:
            self.evictions += 1

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_lower(self, program: ProgramSchedule, dtype=np.float64,
                     ) -> CompiledProgram:
        key = plan_key(program, dtype)
        with obs_span("plan_cache_lookup", category="runtime",
                      program=program.name) as sp:
            cached = self._entries.get(key)
            sp.note(hit=cached is not None)
        if cached is not None:
            with self._lock:
                self.hits += 1
            return cached
        compiled = lower_program(program, dtype, key=key)
        with self._lock:
            self.misses += 1
        self._entries.put(key, compiled)
        return compiled

    def evict(self, key: tuple) -> bool:
        """Quarantine: drop one plan so it can never be re-served.

        Returns True iff the key was resident.  Used when a compiled
        plan starts emitting non-finite values — the next request for
        the schedule re-lowers from scratch instead of reusing the
        poisoned artifact.
        """
        if self._entries.pop(key) is None:
            return False
        with self._lock:
            self.quarantined += 1
        return True

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {"hits": self.hits, "misses": self.misses,
                    "evictions": self.evictions,
                    "quarantined": self.quarantined,
                    "resident": len(self._entries),
                    "capacity": self._entries.capacity}


_DEFAULT_CACHE = PlanCache()


def default_plan_cache() -> PlanCache:
    """The process-wide plan cache used when no explicit cache is given."""
    return _DEFAULT_CACHE


def compile_schedule(program: ProgramSchedule, dtype=np.float64,
                     cache: PlanCache | None = None) -> CompiledProgram:
    """Lower (or fetch the cached lowering of) a program schedule."""
    if cache is None:  # NOT `or`: an empty PlanCache is falsy (len == 0)
        cache = _DEFAULT_CACHE
    return cache.get_or_lower(program, dtype)


def execute_compiled(program: ProgramSchedule,
                     feeds: dict[str, np.ndarray], dtype=np.float64,
                     cache: PlanCache | None = None,
                     ) -> dict[str, np.ndarray]:
    """Convenience wrapper mirroring :func:`execute_schedule`: lower
    through the plan cache, then execute ``feeds``."""
    return compile_schedule(program, dtype, cache).execute(feeds)
