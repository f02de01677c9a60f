"""Inference sessions: one compiled model serving many requests.

An :class:`InferenceSession` owns everything needed to answer requests for
one workload graph on one GPU: it compiles through the two-tier cache
(:class:`~repro.serve.cache.TieredScheduleCache`), lowers the schedule
at host configs (:func:`~repro.runtime.compiled.host_plan`) through the
plan cache of the compiled execution engine
(:mod:`repro.runtime.compiled`), and executes request feeds.  Lowered
programs are pure functions over a per-request environment dict, so any
number of threads can execute concurrently on one session.

Two engines are available (``engine=`` constructor argument):

* ``"compiled"`` (default) — the lower-once engine: vectorized
  whole-tensor kernels, cached :class:`~repro.runtime.compiled.CompiledProgram`
  artifacts shared across sessions via the process-wide plan cache;
* ``"interpreter"`` — the schedule interpreter, kept as the always-correct
  fallback and as the parity oracle the compiled engine is tested against.

Graceful degradation — the ladder is compiled → interpreter → reference:

* if compilation or lowering fails (a transient compile fault only after
  the cache's retry policy is exhausted), or a request's deadline
  expires before the compiled artifact is ready, the session serves the
  request through the unfused reference kernels
  (:func:`repro.runtime.kernels.execute_graph_reference`);
* if the compiled engine *errors* on a request, the session answers via
  the reference and counts the failure against a per-workload
  :class:`~repro.resilience.retry.CircuitBreaker` — after N consecutive
  failures the breaker opens and requests skip the fused path entirely
  until a half-open probe succeeds;
* if the compiled engine returns **non-finite** outputs that the
  interpreter disagrees with, the poisoned plan is quarantined (evicted
  from the :class:`~repro.runtime.compiled.PlanCache`), the request is
  re-answered by the interpreter, and the schedule is re-lowered fresh.

Every downgrade is recorded — a slow correct answer instead of an error.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..core.compiler import FusionOptions
from ..core.schedule import ProgramSchedule
from ..hw.specs import GPUSpec
from ..ir.graph import DataflowGraph
from ..obs import event as obs_event
from ..obs import span as obs_span
from ..resilience.retry import CircuitBreaker
from ..runtime.compiled import (
    CompiledProgram,
    PlanCache,
    compile_schedule,
    default_plan_cache,
    host_plan,
    outputs_finite,
)
from ..runtime.executor import ScheduleExecutor
from ..runtime.kernels import execute_graph_reference
from ..tune.fingerprint import gpu_fingerprint
from .cache import TieredScheduleCache
from .metrics import ServeMetrics

#: Compile lifecycle states.
PENDING, READY, FAILED = "pending", "ready", "failed"

#: Execution engines a session can run on.
ENGINE_COMPILED, ENGINE_INTERPRETER = "compiled", "interpreter"
ENGINES = (ENGINE_COMPILED, ENGINE_INTERPRETER)


class SessionError(Exception):
    """Raised on invalid session usage (not on degraded requests)."""


@dataclass
class SessionReply:
    """One answered request: outputs plus how they were produced."""

    outputs: dict[str, np.ndarray]
    degraded: bool = False
    reason: str | None = None
    latency_s: float = 0.0


@dataclass
class SessionInfo:
    """Introspection snapshot for reporting."""

    workload: str
    gpu: str
    state: str
    engine: str = ENGINE_COMPILED
    requests: int = 0
    degraded_requests: int = 0
    compile_error: str | None = None
    kernels: int = 0
    meta: dict = field(default_factory=dict)


class InferenceSession:
    """Serve one workload graph: compile once (cached), execute many."""

    def __init__(self, graph: DataflowGraph, gpu: GPUSpec,
                 options: FusionOptions | None = None,
                 cache: TieredScheduleCache | None = None,
                 metrics: ServeMetrics | None = None,
                 compile_fn: Callable[[], ProgramSchedule] | None = None,
                 eager: bool = False,
                 engine: str = ENGINE_COMPILED,
                 plan_cache: PlanCache | None = None,
                 breaker: CircuitBreaker | None = None,
                 tune_db=None,
                 compile_deadline_s: float | None = None) -> None:
        if engine not in ENGINES:
            raise SessionError(
                f"unknown engine {engine!r}; expected one of {ENGINES}")
        self.graph = graph
        self.gpu = gpu
        self.options = options
        #: Optional :class:`repro.tune.TuneDB` — schedule-cache misses
        #: compile through a GuidedTuner over it, so a cold schedule cache on
        #: a warm tuning database still skips the tuning campaigns.
        self.tune_db = tune_db
        self.engine = engine
        self.plan_cache = plan_cache
        self.metrics = metrics or (cache.metrics if cache is not None
                                   else ServeMetrics())
        self.cache = cache if cache is not None else \
            TieredScheduleCache(metrics=self.metrics)
        #: Relative budget for the compile's cache resolution: past it,
        #: retry backoff sleeps are skipped and the last error surfaces
        #: so the session degrades promptly instead of retrying into a
        #: dead deadline (None = retry freely).
        self.compile_deadline_s = compile_deadline_s
        self.breaker = breaker or CircuitBreaker()
        if self.breaker.on_transition is None:
            self.breaker.on_transition = self._on_breaker_transition
        self._compile_fn = compile_fn or self._default_compile
        self._state = PENDING
        self._ready = threading.Event()
        self._compile_started = threading.Lock()
        self._compile_thread: threading.Thread | None = None
        self.compile_error: str | None = None
        #: The cached GPU-tuned schedule, and the copy both engines run:
        #: its configs re-picked for the host (``host_plan``).
        self.schedule: ProgramSchedule | None = None
        self.host_schedule: ProgramSchedule | None = None
        self._host_report: list = []
        self.program: CompiledProgram | None = None
        self._interpreter = ScheduleExecutor()
        self._requests = 0
        self._degraded = 0
        self._count_lock = threading.Lock()
        if eager:
            self.ensure_compiled()

    # ------------------------------------------------------------------
    # Compilation
    # ------------------------------------------------------------------

    def _default_compile(self) -> ProgramSchedule:
        from ..pipeline import compile_for

        schedule, stats = compile_for(self.graph, self.gpu, self.options,
                                      tune_db=self.tune_db,
                                      tune_metrics=self.metrics)
        if stats is not None:
            self.metrics.add_gauge("tuning.wall_time_s",
                                   stats.tuning_wall_time)
            self.metrics.inc("tuning.configs_evaluated",
                             stats.configs_evaluated)
            self.metrics.inc("tuning.configs_quit_early",
                             stats.configs_quit_early)
        return schedule

    def _options_repr(self) -> str:
        return repr(self.options) if self.options is not None else ""

    def _compile_once(self) -> None:
        deadline = (time.monotonic() + self.compile_deadline_s
                    if self.compile_deadline_s is not None else None)
        try:
            with obs_span("session_compile", category="compile",
                          workload=self.graph.name, gpu=self.gpu.name):
                schedule = self.cache.get_or_compile(
                    self.graph, gpu_fingerprint(self.gpu), self._compile_fn,
                    self._options_repr(), deadline_s=deadline)
            with obs_span("session_lower", category="compile",
                          workload=self.graph.name, engine=self.engine):
                host, self._host_report = host_plan(schedule)
                if self.engine == ENGINE_COMPILED:
                    # In-memory code generation: it fails only
                    # deterministically, so it runs once.
                    self.program = compile_schedule(host,
                                                    cache=self.plan_cache)
            self.schedule, self.host_schedule = schedule, host
            self._state = READY
        except Exception as exc:  # noqa: BLE001 — any compile failure degrades
            self.compile_error = f"{type(exc).__name__}: {exc}"
            self._state = FAILED
            self.metrics.inc("compile_failures")
        finally:
            self._ready.set()

    def start_compile(self) -> None:
        """Kick off compilation in the background (idempotent)."""
        with self._compile_started:
            if self._compile_thread is None and not self._ready.is_set():
                self._compile_thread = threading.Thread(
                    target=self._compile_once,
                    name=f"compile-{self.graph.name}", daemon=True)
                self._compile_thread.start()

    def ensure_compiled(self, timeout: float | None = None) -> bool:
        """Wait until compilation settled; True iff the fused path is ready.

        With a ``timeout`` the wait is bounded: returning False means the
        caller should degrade to the reference path for *this* request
        while compilation keeps running for future ones.
        """
        if self._state == READY:
            return True
        self.start_compile()
        self._ready.wait(timeout)
        return self._state == READY

    @property
    def state(self) -> str:
        return self._state

    @property
    def num_kernels(self) -> int:
        if self.program is not None:
            return len(self.program.kernels)
        if self.schedule is not None:
            return self.schedule.num_kernels
        return 0

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _execute_fused(self, feeds: dict[str, np.ndarray],
                       ) -> dict[str, np.ndarray]:
        if self.engine == ENGINE_COMPILED:
            assert self.program is not None
            env = self.program.execute(feeds)
        else:
            env = self._interpreter.execute_program(self.host_schedule, feeds)
        return {t: env[t] for t in self.graph.output_tensors}

    def _execute_reference(self, feeds: dict[str, np.ndarray],
                           ) -> dict[str, np.ndarray]:
        return execute_graph_reference(self.graph, feeds)

    # -- resilience hooks ----------------------------------------------

    #: Numeric breaker-state encoding for the Prometheus gauge
    #: (``0`` healthy, higher = worse, so alert rules can threshold it).
    BREAKER_STATE_CODES = {"closed": 0, "half_open": 1, "open": 2}

    def _on_breaker_transition(self, old: str, new: str) -> None:
        self.metrics.inc(f"breaker.{new}")
        self.metrics.set_gauge(f"breaker_state.{self.graph.name}",
                               self.BREAKER_STATE_CODES.get(new, -1))
        obs_event("breaker_transition", category="serve",
                  workload=self.graph.name, old=old, new=new)

    def _quarantine_and_reanswer(self, feeds: dict[str, np.ndarray],
                                 ) -> tuple[dict[str, np.ndarray], str]:
        """The compiled engine produced non-finite outputs: re-answer via
        the interpreter and decide whether the *plan* is to blame.

        If the interpreter's answer is finite, the plan is poisoned —
        evict it from the plan cache and re-lower fresh.  If the
        interpreter agrees the result is non-finite, the data (not the
        plan) produced it, and the plan stays.
        """
        assert self.host_schedule is not None and self.program is not None
        env = self._interpreter.execute_program(self.host_schedule, feeds)
        outputs = {t: env[t] for t in self.graph.output_tensors}
        if not outputs_finite(outputs, self.graph.output_tensors):
            self.metrics.inc("plans.nonfinite_data")
            return outputs, "nonfinite_data"
        cache = self.plan_cache or default_plan_cache()
        cache.evict(self.program.key)
        self.metrics.inc("plans.quarantined")
        obs_event("plan_quarantine", category="serve",
                  workload=self.graph.name, program=self.program.name)
        self.program = compile_schedule(self.host_schedule, cache=cache)
        return outputs, "plan_quarantined"

    def execute(self, feeds: dict[str, np.ndarray],
                timeout: float | None = None) -> SessionReply:
        """Answer one request; degrade down the ladder when needed.

        The ladder: compiled plan (breaker permitting) → interpreter
        (only to re-answer a quarantined plan's request) → unfused
        reference (compile trouble, open breaker, or an engine error).
        """
        t0 = time.perf_counter()
        degraded_reason: str | None = None
        with obs_span("execute", category="serve",
                      workload=self.graph.name, engine=self.engine) as sp:
            outputs: dict[str, np.ndarray] | None = None
            if not self.ensure_compiled(timeout):
                degraded_reason = ("compile_failed" if self._state == FAILED
                                   else "compile_timeout")
            elif not self.breaker.allow():
                degraded_reason = "breaker_open"
            else:
                try:
                    outputs = self._execute_fused(feeds)
                    if (self.engine == ENGINE_COMPILED
                            and not outputs_finite(
                                outputs, self.graph.output_tensors)):
                        outputs, degraded_reason = \
                            self._quarantine_and_reanswer(feeds)
                    self.breaker.record_success()
                except Exception as exc:  # noqa: BLE001 — degrade, don't error
                    self.breaker.record_failure()
                    degraded_reason = "engine_error"
                    sp.note(engine_error=f"{type(exc).__name__}: {exc}")
                    outputs = None
            if outputs is None:
                outputs = self._execute_reference(feeds)
            if degraded_reason is not None:
                self.metrics.record_fallback(degraded_reason)
            sp.note(degraded=degraded_reason is not None,
                    reason=degraded_reason)
        latency = time.perf_counter() - t0
        with self._count_lock:
            self._requests += 1
            if degraded_reason is not None:
                self._degraded += 1
        self.metrics.observe_request(latency, workload=self.graph.name)
        return SessionReply(outputs=outputs,
                            degraded=degraded_reason is not None,
                            reason=degraded_reason, latency_s=latency)

    def __call__(self, feeds: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
        return self.execute(feeds).outputs

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def info(self) -> SessionInfo:
        with self._count_lock:
            requests, degraded = self._requests, self._degraded
        meta = {"cache": self.cache.stats(),
                "breaker": self.breaker.snapshot()}
        if self.program is not None:
            meta["plan_kinds"] = self.program.kind_counts()
        if self.host_schedule is not None:
            meta["host_plan"] = self._host_report
        if self.tune_db is not None:
            meta["tunedb"] = self.tune_db.disk_stats()
        return SessionInfo(
            workload=self.graph.name, gpu=self.gpu.name, state=self._state,
            engine=self.engine,
            requests=requests, degraded_requests=degraded,
            compile_error=self.compile_error,
            kernels=self.num_kernels,
            meta=meta,
        )
