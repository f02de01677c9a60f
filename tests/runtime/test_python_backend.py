"""Tests for the executable Python codegen backend: the fused plan.

Three-way agreement is the bar: compiled plan == schedule interpreter
(bitwise, both at float64) == unfused reference, across workloads and
tilings.
"""

import numpy as np
import pytest

from repro.core.builder import build_smg
from repro.core.schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from repro.core.temporal_slicer import plan_temporal_slice
from repro.hw import AMPERE
from repro.ir import GraphBuilder, program_from_graph
from repro.models import gqa_graph, mha_graph
from repro.pipeline import compile_for, compile_model_for
from repro.runtime import PlanCache, compile_schedule, execute_compiled
from repro.runtime.executor import execute_schedule
from repro.runtime.kernels import execute_graph_reference, random_feeds


def _three_way(graph, schedule, seed=0, atol=1e-8, feeds=None):
    feeds = feeds if feeds is not None else random_feeds(graph, seed=seed)
    ref = execute_graph_reference(graph, feeds)
    interp = execute_schedule(schedule, feeds)
    compiled = execute_compiled(schedule, feeds, cache=PlanCache())
    for name, expected in ref.items():
        np.testing.assert_allclose(compiled[name], expected, atol=atol,
                                   err_msg=f"compiled vs ref: {name}")
        np.testing.assert_array_equal(compiled[name], interp[name],
                                      err_msg=f"compiled vs interp: {name}")


class TestGeneratedKernels:
    def test_mha(self, small_mha):
        sched, _ = compile_for(small_mha, AMPERE)
        _three_way(small_mha, sched)

    def test_layernorm_two_pass(self, small_ln):
        smg = build_smg(small_ln)
        plan = plan_temporal_slice(smg, "n")
        kernel = KernelSchedule(
            "k", smg, ("m",), plan,
            config=ScheduleConfig(block=(("m", 8),), tile=24))
        _three_way(small_ln, ProgramSchedule("p", [kernel]))

    def test_softmax_pass2(self, small_softmax):
        sched, _ = compile_for(small_softmax, AMPERE)
        _three_way(small_softmax, sched)

    def test_mlp_plain_kernel(self, small_mlp):
        from repro.core.compiler import FusionOptions
        sched, _ = compile_for(small_mlp, AMPERE,
                               FusionOptions(enable_temporal=False))
        _three_way(small_mlp, sched)

    def test_lstm(self, small_lstm):
        sched, _ = compile_for(small_lstm, AMPERE)
        _three_way(small_lstm, sched)

    def test_gqa(self):
        graph = gqa_graph(1, 4, 2, 24, 32, 8)
        sched, _ = compile_for(graph, AMPERE)
        _three_way(graph, sched)

    @pytest.mark.parametrize("block,tile", [(7, 13), (96, 1), (1, 80)])
    def test_ragged_tilings(self, small_mha, block, tile):
        smg = build_smg(small_mha)
        plan = plan_temporal_slice(smg, "l")
        kernel = KernelSchedule(
            "k", smg, ("m",), plan,
            config=ScheduleConfig(block=(("m", block),), tile=tile))
        _three_way(small_mha, ProgramSchedule("p", [kernel]))

    def test_multi_kernel_program(self):
        from repro.models import mlp_graph
        graph = mlp_graph(2, 32, 512, 600)  # splits into several kernels
        sched, _ = compile_for(graph, AMPERE)
        assert sched.num_kernels >= 2
        _three_way(graph, sched)

    def test_masked_attention(self):
        graph = mha_graph(1, 2, 16, 20, 8, masked=True)
        sched, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=1)
        feeds["Mask"] = (np.random.default_rng(0).random((16, 20)) > 0.3
                         ).astype(float)
        _three_way(graph, sched, atol=1e-9, feeds=feeds)


class TestGeneratedSource:
    def test_source_is_real_flash_attention(self, small_mha):
        sched, _ = compile_for(small_mha, AMPERE)
        segment = compile_schedule(sched, cache=PlanCache()).kernels[0]
        assert segment.kind == "loopnest"
        src = segment.source
        assert "np.matmul(" in src or "_mm(" in src   # BLAS-backed gemms
        assert "np.maximum(" in src          # running max
        assert "np.exp(-1 * ((" in src       # inlined exp rescaling
        assert "old_" in src                 # old-aggregate snapshots

    def test_barrier_kernel_codegen(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 8), ("n", 4)])
        e = b.unary("exp", x)
        b.barrier("reshape", e, [("f", 32)], out_name="Y")
        prog = program_from_graph(b.build())
        model = compile_model_for(prog, AMPERE)
        sched = model.expanded_schedule()
        feeds = random_feeds(b.graph, seed=0)
        compiled = compile_schedule(sched, cache=PlanCache())
        assert "barrier" in compiled.kind_counts()
        env = compiled.execute({"X": feeds["X"]})
        assert env["Y"].shape == (32,)
        np.testing.assert_allclose(env["Y"], np.exp(feeds["X"]).reshape(32))
        interp = execute_schedule(sched, {"X": feeds["X"]})
        np.testing.assert_array_equal(env["Y"], interp["Y"])
