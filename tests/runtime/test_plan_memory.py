"""Fused plans keep their tile loops allocation-free — and bitwise exact.

The emission rules under test (docs/runtime.md, "Emission rules"): a
stage's update runs in three-address form, written back into the
aggregate; a factor several stages of a tile apply is bound once; and a
pass-2 body that never touches the temporal axis runs once instead of
once per tile.
"""

import ast
import functools
import tracemalloc

import numpy as np
import pytest

from repro.codegen.python_backend import _BINARY_UFUNC, _var
from repro.core.builder import build_smg
from repro.core.schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from repro.core.temporal_slicer import plan_temporal_slice
from repro.hw import AMPERE
from repro.ir import GraphBuilder
from repro.models import (
    layernorm_graph,
    lstm_cell_graph,
    mha_graph,
    mlp_graph,
    softmax_gemm_graph,
)
from repro.pipeline import compile_for
from repro.runtime import (
    PlanCache,
    compile_schedule,
    execute_compiled,
    execute_schedule,
    random_feeds,
)

#: The six ``exec_inproc`` shapes and ``serve_heavy``'s softmax-GEMM.
SHAPES = {
    "mlp": lambda: mlp_graph(8, 256, 64, 64),
    "lstm": lambda: lstm_cell_graph(64, 128),
    "layernorm": lambda: layernorm_graph(256, 256),
    "mha": lambda: mha_graph(1, 8, 128, 128, 64),
    "mha-decode": lambda: mha_graph(1, 8, 1, 128, 64),
    "mha-long": lambda: mha_graph(2, 8, 512, 512, 64),
    "softmax-gemm": lambda: softmax_gemm_graph(256, 512, 64),
}
#: Those whose schedule on AMPERE has a temporal (tile-loop) kernel.
TEMPORAL = ("mlp", "mha", "mha-long", "softmax-gemm")



@functools.lru_cache(maxsize=None)
def _plan(name: str):
    """(graph, schedule, compiled program) of one shape, built once."""
    graph = SHAPES[name]()
    sched, _ = compile_for(graph, AMPERE)
    return graph, sched, compile_schedule(sched, cache=PlanCache())


def _tile_loops(source: str) -> list[ast.For]:
    return [node for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.For)
            and getattr(node.target, "id", "") == "_lo_t"]


class TestBitwiseParity:
    @pytest.mark.parametrize("name", list(SHAPES))
    def test_benchmark_shapes_match_the_interpreter(self, name):
        graph, sched, program = _plan(name)
        feeds = random_feeds(graph, seed=7)
        expected = execute_schedule(sched, feeds)
        for _ in range(2):      # the second call runs on warm arena buffers
            env = program.execute(feeds)
            for t in graph.output_tensors:
                np.testing.assert_array_equal(env[t], expected[t])

    @staticmethod
    def _chain(kind: str):
        b = GraphBuilder(f"uta_{kind}")
        if kind == "scalar":        # every aggregate is 0-d
            e = b.unary("sigmoid", b.input("X", [("n", 40)]))
            s1 = b.reduce("sum", e, dim="n", out_name="S1")
            s2 = b.reduce("sum", b.binary("div", e, s1), dim="n")
            b.binary("mul", e, s2, out_name="Y")
            return b.build(), ()
        x = b.input("X", [("m", 24), ("n", 40)])
        e = b.unary("sigmoid", x)
        s1 = b.reduce("sum", e, dim="n", out_name="S1")
        if kind == "id":            # guarded ratio, negative power
            sq = b.unary("square", b.binary("div", e, s1))
            b.reduce("sum", sq, dim="n", out_name="S2")
        elif kind == "shared":      # one id factor on two later stages
            b.reduce("sum", b.binary("div", e, s1), dim="n", out_name="S2")
            b.reduce("sum", b.binary("mul", b.unary("square", e), s1),
                     dim="n", out_name="S3")
            b.reduce("sum", b.binary("div", x, s1), dim="n", out_name="S4")
        else:                       # additive offset under a max
            b.reduce("max", b.binary("sub", x, s1), dim="n", out_name="Mx")
        return b.build(), ("m",)

    @pytest.mark.parametrize("kind", ["id", "shared", "offset", "scalar"])
    @pytest.mark.parametrize("tile", [8, 12])     # even and ragged tiles
    def test_update_patterns_match_the_interpreter(self, kind, tile):
        """Hand-tiled UTA chains beyond attention: ratio factors, a factor
        two stages share, offsets, scalar aggregates."""
        graph, spatial = self._chain(kind)
        smg = build_smg(graph)
        plan = plan_temporal_slice(smg, "n")
        updates = [s.update for s in plan.stages]
        if kind == "offset":
            assert any(u.offsets for u in updates)
        else:
            assert any(f.func == "id" for u in updates for f in u.factors)
        kernel = KernelSchedule(
            "k", smg, spatial, plan,
            config=ScheduleConfig(block=tuple((d, 8) for d in spatial),
                                  tile=tile))
        sched = ProgramSchedule("p", [kernel])
        feeds = random_feeds(graph, seed=11)
        expected = execute_schedule(sched, feeds)
        program = compile_schedule(sched, cache=PlanCache())
        if kind == "shared":
            assert program.fused.source.count(" = (np.divide(") == 1
        for _ in range(2):
            env = program.execute(feeds)
            for t in graph.output_tensors:
                np.testing.assert_array_equal(env[t], expected[t])

    def test_an_update_reading_its_own_aggregate_is_refused(self):
        """The in-place chain is sound because no term of a stage's update
        reads that stage's aggregate; a plan that breaks this does not
        lower (the session then answers from the interpreter)."""
        import dataclasses

        from repro.core.update_functions import NormFactor, UpdateFunction
        from repro.runtime import LoweringError

        graph = mha_graph(1, 2, 16, 24, 8, name="own_agg")
        smg = build_smg(graph)
        plan = plan_temporal_slice(smg, "l")
        stage = plan.stages[-1]
        plan.stages[-1] = dataclasses.replace(stage, update=UpdateFunction(
            stage.output, (NormFactor(stage.output, "exp", -1),), ()))
        kernel = KernelSchedule("k", smg, ("m",), plan,
                                config=ScheduleConfig(block=(("m", 8),),
                                                      tile=8))
        with pytest.raises(LoweringError, match="its own aggregate"):
            compile_schedule(ProgramSchedule("p", [kernel]),
                             cache=PlanCache())

    def test_float32_plan_matches_the_interpreter(self):
        """The arena-filled neutral element carries the plan dtype (the
        interpreter applies updates in f64, so f32 parity is to rounding)."""
        graph = softmax_gemm_graph(48, 96, 16, name="sg32")
        sched, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=5)
        expected = execute_schedule(sched, feeds, dtype=np.float32)
        env = execute_compiled(sched, feeds, dtype=np.float32,
                               cache=PlanCache())
        for t in graph.output_tensors:
            assert env[t].dtype == np.float32
            np.testing.assert_allclose(env[t], expected[t], atol=1e-5)


class TestSteadyStateAllocation:
    # Not softmax-gemm: numpy's own 64 kB iterator buffers for its strided
    # X tiles are the size of that plan's whole 128 kB output.
    @pytest.mark.parametrize("name", ["mlp", "mha", "mha-long"])
    def test_third_call_allocates_little_beyond_its_outputs(self, name):
        """In steady state a plan allocates its published outputs and
        aggregate-sized scraps; a full-size temporary per tile (the
        nested update expression this replaced) peaks near 3x on mha."""
        graph, _sched, program = _plan(name)
        feeds = random_feeds(graph, seed=3)
        for _ in range(2):
            env = program.execute(feeds)
        published = sum(env[t].nbytes for t in graph.output_tensors)
        del env
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base, _ = tracemalloc.get_traced_memory()
            env = program.execute(feeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - base <= 1.5 * published, (name, peak - base, published)


class TestSourceShape:
    @pytest.mark.parametrize("name", TEMPORAL)
    def test_tile_loops_do_not_allocate_full_size(self, name):
        _graph, sched, program = _plan(name)
        aggregates = {_var(s.output) for k in sched.kernels if k.plan
                      for s in k.plan.stages}
        ufuncs = {fn.split(".")[1] for fn in _BINARY_UFUNC.values()}
        loops = _tile_loops(program.fused.source)
        assert loops
        for loop in loops:
            for node in ast.walk(loop):
                if isinstance(node, ast.Call):
                    fn = getattr(node.func, "attr", "")
                    assert fn != "ones_like"
                    if fn in ufuncs and isinstance(node.func.value, ast.Name):
                        assert any(kw.arg == "out" for kw in node.keywords), \
                            ast.unparse(node)
                # An aggregate is only ever scaled or shifted through
                # ``out=``; infix ``*``/``+`` on one is a fresh array.
                if isinstance(node, ast.BinOp) and \
                        isinstance(node.op, (ast.Mult, ast.Add)):
                    for side in (node.left, node.right):
                        assert getattr(side, "id", None) not in aggregates, \
                            ast.unparse(node)

    def test_shared_factor_is_bound_once(self):
        """``exp(-(rmax - old_rmax))`` rescales both rsum and Out."""
        source = _plan("mha")[2].fused.source
        assert source.count("np.exp(-1 * (") == 1

    def test_mlp_pass2_runs_once(self):
        """No pass-2 op of the mlp plan carries the temporal dimension:
        seven layers once, not once per tile."""
        source = _plan("mlp")[2].fused.source
        assert len(_tile_loops(source)) == 1
        assert source.count("for _lo_t") == 1

    def test_pass2_with_a_temporal_axis_keeps_its_loop(self):
        """A pass-2 gemm whose operand streams the temporal axis tiles."""
        b = GraphBuilder("p2loop")
        x = b.input("X", [("m", 16), ("n", 24)])
        w = b.input("W", [("m", 16), ("d", 8)])
        e = b.unary("exp", b.binary("sub", x, b.reduce("max", x, dim="n")))
        p = b.binary("div", e, b.reduce("sum", e, dim="n"))
        b.matmul(p, w, reduce_dim="m", out_name="Out")
        graph = b.build()
        smg = build_smg(graph)
        plan = plan_temporal_slice(smg, "n")
        assert "matmul" in {graph.op(n).kind for n in plan.pass2_op_names}
        kernel = KernelSchedule("k", smg, (), plan,
                                config=ScheduleConfig(block=(), tile=8))
        sched = ProgramSchedule("p", [kernel])
        program = compile_schedule(sched, cache=PlanCache())
        assert len(_tile_loops(program.fused.source)) == 2
        feeds = random_feeds(graph, seed=2)
        expected = execute_schedule(sched, feeds)
        np.testing.assert_array_equal(program.execute(feeds)["Out"],
                                      expected["Out"])
