"""Tests for the end-to-end SpaceFusion compiler (Figure 9 pipeline)."""

import pytest

from repro.core.compiler import FusionOptions, SpaceFusionCompiler
from repro.hw import AMPERE
from repro.ir import GraphBuilder, program_from_graph
from repro.models import layernorm_graph, mha_graph, mlp_graph
from repro.pipeline import compile_for, compile_model_for, make_compiler


class TestCompileGraph:
    def test_mha_compiles_to_single_fused_kernel(self, small_mha):
        sched, _stats = compile_for(small_mha, AMPERE)
        assert sched.num_kernels == 1
        assert sched.kernels[0].plan is not None

    def test_layernorm_single_kernel(self, small_ln):
        sched, _ = compile_for(small_ln, AMPERE)
        assert sched.num_kernels == 1

    def test_small_mlp_fuses_whole_stack(self):
        graph = mlp_graph(6, 2048, 256, 256)
        sched, _ = compile_for(graph, AMPERE)
        assert sched.num_kernels == 1
        assert len(sched.kernels[0].exec_graph.ops) == len(graph.ops)

    def test_wide_ffn_splits_at_contractions(self):
        """Llama-class FFN widths make whole-stack fusion lose: the
        compiler's candidate exploration must pick the split schedule."""
        graph = mlp_graph(2, 512, 4096, 11008)
        sched, _ = compile_for(graph, AMPERE)
        assert sched.num_kernels >= 2

    def test_a_tie_keeps_the_fused_kernel(self):
        """A cut replaces the incumbent only when strictly faster: with
        every kernel timed at zero, the contraction split ties the fused
        kernel and loses."""
        graph = mlp_graph(2, 512, 256, 256)
        compiler = SpaceFusionCompiler(AMPERE.resource_config(),
                                       lambda kernel, cfg: 0.0)
        sched, _ = compiler.compile_graph(graph)
        assert sched.num_kernels == 1
        assert len(sched.kernels[0].exec_graph.ops) == len(graph.ops)

    def test_all_kernels_configured(self, small_mha):
        sched, _ = compile_for(small_mha, AMPERE)
        for kernel in sched.kernels:
            assert kernel.config is not None

    def test_stats_fields(self, small_mha):
        _sched, stats = compile_for(small_mha, AMPERE)
        assert stats.configs_evaluated > 0
        assert stats.tuning_wall_time > 0
        assert stats.kernels == 1
        assert stats.total_time > 0

    def test_unparallelisable_graph_partition_fallback(self):
        b = GraphBuilder("g")
        x = b.input("X", [("n", 4096)])
        s = b.reduce("sum", x, dim="n")
        graph = b.build()
        sched, _ = compile_for(graph, AMPERE)
        assert sched.num_kernels >= 1  # degenerate single-block kernel

    def test_pattern_census_records(self, small_mha):
        compiler = make_compiler(AMPERE)
        compiler.compile_graph(small_mha)
        assert len(compiler.fusion_patterns) == 1
        info = next(iter(compiler.fusion_patterns.values()))
        assert info["a2o_mappings"] == 4
        assert info["intensity"] in ("CI", "MI", "mixed")


class TestFusionOptions:
    def test_astitch_mode_never_fuses_ci(self, small_mha):
        options = FusionOptions(fuse_compute_intensive=False)
        sched, _ = compile_for(mha_graph(1, 2, 256, 256, 64), AMPERE,
                               options)
        from repro.ir.traits import is_compute_intensive
        for kernel in sched.kernels:
            g = kernel.exec_graph
            ci = [op for op in g.ops if is_compute_intensive(op, g.dims)]
            if ci:
                assert len(g.ops) == 1

    def test_welder_mode_splits_mha(self):
        """Without UTA the dependent attention chain cannot be temporally
        sliced; at long sequence lengths the spatial-only fusion overflows
        shared memory and the kernel splits (the paper's NNFusion
        failure)."""
        graph = mha_graph(1, 2, 4096, 4096, 64)
        full, _ = compile_for(graph, AMPERE)
        welder, _ = compile_for(graph, AMPERE,
                                FusionOptions(enable_uta=False))
        assert full.num_kernels == 1
        assert welder.num_kernels > 1

    def test_no_auto_tune_uses_fixed_config(self, small_mha):
        sched, stats = compile_for(small_mha, AMPERE,
                                   FusionOptions(auto_tune=False))
        assert stats.tuning_wall_time == 0.0
        assert sched.kernels[0].config is not None

    def test_slicing_options_propagate(self):
        options = FusionOptions(enable_temporal=False, enable_uta=False,
                                max_configs=7)
        so = options.slicing_options()
        assert not so.enable_temporal and not so.enable_uta
        assert so.max_configs == 7


class TestCompileModel:
    def test_model_with_barriers(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 64), ("n", 32)])
        e = b.unary("exp", x)
        r = b.barrier("reshape", e, [("f", 2048)])
        b.unary("relu", r, out_name="Out")
        prog = program_from_graph(b.build(), occurrences=3)
        model = compile_model_for(prog, AMPERE)
        assert len(model.subprograms) == 3
        assert all(s.occurrences == 3 for s in model.subprograms)
        barrier_kernels = [
            k for s in model.subprograms for k in s.schedule.kernels
            if k.meta.get("barrier")
        ]
        assert barrier_kernels

    def test_repeated_subprograms_compile_once(self):
        from repro.ir import TensorProgram
        prog = TensorProgram("p")
        prog.add(layernorm_graph(64, 64, name="ln"), occurrences=1)
        prog.add(layernorm_graph(64, 64, name="ln"), occurrences=1)
        model = compile_model_for(prog, AMPERE)
        assert len(model.subprograms) == 1
        assert model.subprograms[0].occurrences == 2

    def test_expanded_schedule_unrolls(self):
        from repro.ir import TensorProgram
        prog = TensorProgram("p")
        prog.add(layernorm_graph(64, 64, name="ln"), occurrences=4)
        model = compile_model_for(prog, AMPERE)
        assert model.expanded_schedule().num_kernels == 4
