"""Tests for the compiled execution engine (repro.runtime.compiled).

The engine must be a drop-in replacement for the schedule interpreter:
bitwise-identical outputs at the same dtype, one lowering per (schedule,
dtype, sizes) key, and never slower than interpreting on the serving
workloads.
"""

import time

import numpy as np
import pytest

from repro.core.builder import build_smg
from repro.core.schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from repro.hw import AMPERE
from repro.ir import GraphBuilder
from repro.models import (
    layernorm_graph,
    lstm_cell_graph,
    mha_graph,
    mlp_graph,
)
from repro.obs import Tracer, use_tracer
from repro.pipeline import compile_for
from repro.runtime import (
    ExecutionError,
    LoweringError,
    PlanCache,
    compile_schedule,
    execute_compiled,
    execute_graph_reference,
    execute_schedule,
    lower_program,
    plan_key,
    random_feeds,
    schedule_fingerprint,
)
from repro.runtime.compiled import lower_kernel


def _elementwise_graph(m=24, n=40, name="elem"):
    b = GraphBuilder(name)
    x = b.input("X", [("m", m), ("n", n)])
    y = b.unary("exp", x)
    z = b.unary("tanh", y)
    b.scalar("mul", z, 0.5, out_name="Y")
    return b.build()


class TestEngineParity:
    def test_elementwise_bitwise_equal_to_interpreter(self):
        graph = _elementwise_graph()
        sched, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=1)
        env_i = execute_schedule(sched, feeds)
        env_c = execute_compiled(sched, feeds, cache=PlanCache())
        np.testing.assert_array_equal(env_c["Y"], env_i["Y"])

    @pytest.mark.parametrize("builder", [
        lambda: layernorm_graph(40, 72, name="ln_cmp"),
        lambda: mha_graph(1, 2, 48, 40, 16, name="mha_cmp"),
    ])
    def test_temporal_kernels_bitwise_equal(self, builder):
        graph = builder()
        sched, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=2)
        env_i = execute_schedule(sched, feeds)
        env_c = execute_compiled(sched, feeds, cache=PlanCache())
        ref = execute_graph_reference(graph, feeds)
        for t, expected in ref.items():
            np.testing.assert_array_equal(env_c[t], env_i[t])
            np.testing.assert_allclose(env_c[t], expected, atol=1e-8)

    def test_manual_blocked_schedule(self, small_mha):
        """A hand-tiled UTA kernel: the lowered loop nest must match the
        interpreter at the same tile size."""
        from repro.core.temporal_slicer import plan_temporal_slice

        smg = build_smg(small_mha)
        plan = plan_temporal_slice(smg, "l")
        kernel = KernelSchedule(
            "k", smg, ("m",), plan,
            config=ScheduleConfig(block=(("m", 16),), tile=24))
        sched = ProgramSchedule("p", [kernel])
        feeds = random_feeds(small_mha, seed=5)
        env_i = execute_schedule(sched, feeds)
        env_c = execute_compiled(sched, feeds, cache=PlanCache())
        np.testing.assert_array_equal(env_c["Out"], env_i["Out"])

    def test_barrier_kernels(self, batched_mha):
        """Multi-head attention compiles with reshape/transpose barriers."""
        sched, _ = compile_for(batched_mha, AMPERE)
        feeds = random_feeds(batched_mha, seed=3)
        env_i = execute_schedule(sched, feeds)
        env_c = execute_compiled(sched, feeds, cache=PlanCache())
        ref = execute_graph_reference(batched_mha, feeds)
        for t in ref:
            np.testing.assert_array_equal(env_c[t], env_i[t])

    def test_float32_execution(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        feeds = random_feeds(small_ln, seed=0)
        env_c = execute_compiled(sched, feeds, dtype=np.float32,
                                 cache=PlanCache())
        env_i = execute_schedule(sched, feeds, dtype=np.float32)
        out = small_ln.output_tensors[0]
        assert env_c[out].dtype == np.float32
        np.testing.assert_allclose(env_c[out], env_i[out], atol=1e-4)


class TestLowering:
    def test_plain_kernels_vectorize(self):
        graph = _elementwise_graph()
        sched, _ = compile_for(graph, AMPERE)
        program = lower_program(sched)
        assert all(lk.kind == "vector" for lk in program.kernels)
        assert all(lk.source is not None for lk in program.kernels)

    def test_temporal_kernels_become_loop_nests(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        program = lower_program(sched)
        kinds = program.kind_counts()
        assert set(kinds) <= {"loopnest", "vector", "barrier", "whole"}

    def test_non_float64_temporal_lowers_without_interp(self, small_ln):
        """Temporal kernels lower to real loop nests at every dtype — the
        ``interp`` fallback kind no longer exists."""
        for dtype in (np.float32, "bfloat16"):
            sched, _ = compile_for(small_ln, AMPERE)
            program = lower_program(sched, dtype=dtype)
            kinds = program.kind_counts()
            assert "interp" not in kinds
            assert set(kinds) <= {"loopnest", "vector", "whole", "barrier"}
            assert program.fused is not None and program.fused.fn is not None

    @pytest.mark.parametrize("dtype", [np.float32, "bfloat16"])
    def test_non_float64_parity_with_interpreter(self, small_ln, dtype):
        """At f32 and bf16 the fused plan agrees with the interpreter to
        dtype tolerance (not bitwise: the interpreter's UTA updates run
        at f64 internally) and computes in float32."""
        from repro.runtime.oracle import tolerance_for

        sched, _ = compile_for(small_ln, AMPERE)
        feeds = random_feeds(small_ln, seed=7)
        env_i = execute_schedule(sched, feeds, dtype=dtype)
        env_c = execute_compiled(sched, feeds, dtype=dtype,
                                 cache=PlanCache())
        out = small_ln.output_tensors[0]
        assert env_c[out].dtype == np.float32
        np.testing.assert_allclose(env_c[out], env_i[out],
                                   atol=tolerance_for(dtype))

    def test_missing_output_raises_at_lower_time(self):
        b = GraphBuilder("bad")
        x = b.input("X", [("m", 8), ("n", 8)])
        b.unary("exp", x, out_name="Y")
        graph = b.build()
        graph.tensors["Z"] = type(graph.tensors["Y"])(
            "Z", ("m", "n"), "fp16", False)
        graph.declared_outputs = ["Y", "Z"]
        smg = build_smg(graph)
        kernel = KernelSchedule("k", smg, ("m",), None,
                                config=ScheduleConfig(block=(("m", 8),)))
        with pytest.raises(LoweringError, match="Z"):
            lower_kernel(kernel)

    def test_describe_mentions_collapsed_blocks(self):
        graph = _elementwise_graph(m=64, n=16)
        sched, _ = compile_for(graph, AMPERE)
        program = lower_program(sched)
        text = program.describe()
        assert "vector" in text

    def test_missing_feed_raises_execution_error(self):
        graph = _elementwise_graph()
        sched, _ = compile_for(graph, AMPERE)
        program = lower_program(sched)
        with pytest.raises(ExecutionError, match="X"):
            program.execute({})


class TestPlanCache:
    def test_hit_returns_same_artifact(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        cache = PlanCache()
        a = cache.get_or_lower(sched)
        b = cache.get_or_lower(sched)
        assert a is b
        stats = cache.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1

    def test_key_varies_with_dtype(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        k64 = plan_key(sched, np.float64)
        k32 = plan_key(sched, np.float32)
        assert k64 != k32 and k64[0] == k32[0]

    def test_key_varies_with_dim_sizes(self):
        s1, _ = compile_for(layernorm_graph(16, 32, name="ln_a"), AMPERE)
        s2, _ = compile_for(layernorm_graph(16, 48, name="ln_a"), AMPERE)
        assert plan_key(s1) != plan_key(s2)

    def test_fingerprint_is_deterministic(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        assert schedule_fingerprint(sched) == schedule_fingerprint(sched)

    def test_lru_eviction(self):
        cache = PlanCache(capacity=1)
        s1, _ = compile_for(_elementwise_graph(8, 8, name="e1"), AMPERE)
        s2, _ = compile_for(_elementwise_graph(8, 12, name="e2"), AMPERE)
        cache.get_or_lower(s1)
        cache.get_or_lower(s2)
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 1
        # s1 was evicted: fetching it again is a miss.
        cache.get_or_lower(s1)
        assert cache.stats()["misses"] == 3

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_executions_counter(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        program = compile_schedule(sched, cache=PlanCache())
        feeds = random_feeds(small_ln, seed=0)
        program.execute(feeds)
        program.execute(feeds)
        assert program.executions == 2

    def test_quarantine_evict_roundtrip_on_fused_plan(self, small_ln):
        """Quarantining a fused plan drops exactly that artifact; the next
        request re-lowers from scratch to an equally correct plan."""
        sched, _ = compile_for(small_ln, AMPERE)
        cache = PlanCache()
        first = cache.get_or_lower(sched)
        assert cache.evict(first.key) is True
        assert cache.evict(first.key) is False  # already gone
        assert len(cache) == 0
        relowered = cache.get_or_lower(sched)
        assert relowered is not first
        assert relowered.key == first.key
        stats = cache.stats()
        assert stats["quarantined"] == 1 and stats["misses"] == 2
        feeds = random_feeds(small_ln, seed=4)
        env_i = execute_schedule(sched, feeds)
        out = small_ln.output_tensors[0]
        np.testing.assert_array_equal(relowered.execute(feeds)[out],
                                      env_i[out])


class TestOutputOwnership:
    """Published outputs must survive the plan's next execution.

    Regression: an identity-renamed output (layernorm's ``Y``) was
    published as an alias of a reused arena buffer, so a session's
    *next* request silently overwrote the array already handed to the
    previous caller — wrong answers under concurrent serving load.
    """

    def test_identity_published_output_not_overwritten(self):
        graph = layernorm_graph(48, 64, name="own_ln")
        sched, _ = compile_for(graph, AMPERE)
        cache = PlanCache()
        f0, f1 = random_feeds(graph, seed=0), random_feeds(graph, seed=1)
        out0 = execute_compiled(sched, f0, cache=cache)
        snap = {k: v.copy() for k, v in out0.items()}
        out1 = execute_compiled(sched, f1, cache=cache)
        for name in snap:
            np.testing.assert_array_equal(out0[name], snap[name])
            assert not np.shares_memory(out0[name], out1[name])

    @pytest.mark.parametrize("make_graph", [
        # mlp: a pass-2 output with no temporal axis took its final-tile
        # value straight from an arena buffer (PR 11's wrong fleet replies).
        lambda: mlp_graph(8, 256, 64, 64),
        lambda: lstm_cell_graph(64, 128),
        lambda: layernorm_graph(256, 256),
        lambda: mha_graph(1, 8, 128, 128, 64),
        lambda: mha_graph(1, 8, 1, 128, 64),
        lambda: mha_graph(2, 8, 512, 512, 64),
    ], ids=["mlp", "lstm", "layernorm", "mha", "mha-decode", "mha-long"])
    def test_benchmark_shapes_own_their_outputs(self, make_graph):
        """Every ``exec_inproc`` shape: answer A is untouched by the
        plan's next execution and lives outside the arena."""
        graph = make_graph()
        sched, _ = compile_for(graph, AMPERE)
        program = compile_schedule(sched, cache=PlanCache())
        env_a = program.execute(random_feeds(graph, seed=0))
        out_a = {t: env_a[t] for t in graph.output_tensors}
        snap = {t: arr.copy() for t, arr in out_a.items()}
        program.execute(random_feeds(graph, seed=1))
        arena = program.fused.arena._bufs().values()
        for t, arr in out_a.items():
            np.testing.assert_array_equal(arr, snap[t])
            assert not any(np.shares_memory(arr, buf) for buf in arena)

    def test_outputs_never_alias_feeds(self):
        b = GraphBuilder("own_id")
        x = b.input("X", [("m", 8), ("n", 16)])
        b.unary("identity", x, out_name="Y")
        graph = b.build()
        sched, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=2)
        out = execute_compiled(sched, feeds, cache=PlanCache())
        np.testing.assert_array_equal(out["Y"], feeds["X"])
        assert not np.shares_memory(out["Y"], feeds["X"])


class TestObservability:
    def test_lower_and_execute_emit_spans(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        tracer = Tracer()
        with use_tracer(tracer):
            execute_compiled(sched, random_feeds(small_ln, seed=0),
                             cache=PlanCache())
        names = {s.name for s in tracer.spans()}
        assert {"plan_cache_lookup", "lower", "compiled_execute"} <= names

    def test_cache_hit_noted_on_span(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        cache = PlanCache()
        cache.get_or_lower(sched)
        tracer = Tracer()
        with use_tracer(tracer):
            cache.get_or_lower(sched)
        lookup = [s for s in tracer.spans()
                  if s.name == "plan_cache_lookup"]
        assert lookup and lookup[0].attrs.get("hit") is True


class TestPerfSmoke:
    def test_compiled_not_slower_than_interpreter_on_mha(self):
        """CI perf smoke: on the MHA serving workload the compiled engine
        must not lose to the interpreter (generous 1.2x slack against
        machine noise; in practice it is ~2x faster)."""
        graph = mha_graph(1, 8, 128, 128, 64, name="mha_smoke")
        sched, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=0)
        program = compile_schedule(sched, cache=PlanCache())

        def best(fn, n=3):
            times = []
            for _ in range(n):
                t0 = time.perf_counter()
                fn()
                times.append(time.perf_counter() - t0)
            return min(times)

        program.execute(feeds)  # warm
        t_interp = best(lambda: execute_schedule(sched, feeds))
        t_compiled = best(lambda: program.execute(feeds))
        assert t_compiled < t_interp * 1.2, (
            f"compiled {t_compiled * 1e3:.2f}ms vs "
            f"interpreter {t_interp * 1e3:.2f}ms")
