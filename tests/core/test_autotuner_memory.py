"""Tests for the auto-tuner (section 6.5) and memory planner (section 5.4)."""

import pytest

from repro.core import memory_planner
from repro.core.autotuner import TuneResult, pick_best, tune_kernel
from repro.core.builder import build_smg
from repro.core.mappings import A2O, O2A
from repro.core.memory_planner import (
    GLOBAL,
    REGISTER,
    SHARED,
    check_memory_plan,
    plan_memory_levels,
    register_tensors,
    shared_tensors,
)
from repro.core.schedule import KernelSchedule, ScheduleConfig
from repro.core.scheduler import resource_aware_slicing
from repro.core.temporal_slicer import plan_temporal_slice
from repro.hw import AMPERE, VOLTA
from repro.models import build_model
from repro.pipeline import compile_for, compile_model_for
from tests.core.test_resources import SUBGRAPHS


def _kernel_with_space(small_mha, n=6):
    smg = build_smg(small_mha)
    plan = plan_temporal_slice(smg, "l")
    k = KernelSchedule("k", smg, ("m",), plan)
    k.search_space = [ScheduleConfig(block=(("m", 8 * (i + 1)),), tile=16)
                      for i in range(n)]
    return k


class TestAutotuner:
    def test_picks_fastest(self, small_mha):
        kernel = _kernel_with_space(small_mha)
        times = {cfg: 1.0 / (i + 1)
                 for i, cfg in enumerate(kernel.search_space)}
        res = tune_kernel(kernel, lambda k, c: times[c])
        assert res.best_config == kernel.search_space[-1]
        assert kernel.config == res.best_config

    def test_winner_always_completes_full_campaign(self, small_mha):
        """Regression (section 6.5): a 2x-better config lands inside the
        old rule's abandonment window (t * MEASURE_RUNS > budget), which
        abandoned it mid-campaign yet still crowned it — the winner was
        counted quit-early and billed a truncated campaign.  A config
        beating the incumbent must instead complete its full campaign.
        """
        kernel = _kernel_with_space(small_mha, n=2)
        times = dict(zip(kernel.search_space, (1.0, 0.5)))
        res = tune_kernel(kernel, lambda k, c: times[c], alpha=0.25)
        assert res.best_config == kernel.search_space[1]
        assert res.configs_quit_early == 0
        assert res.tuning_wall_time == pytest.approx(120 * 1.0 + 120 * 0.5)

    def test_early_quit_counts(self, small_mha):
        kernel = _kernel_with_space(small_mha)
        # First config is fast; the rest are 100x slower -> quit early.
        def timing(k, cfg):
            return 1e-6 if cfg is kernel.search_space[0] else 1e-4
        res = tune_kernel(kernel, timing, alpha=0.25)
        assert res.configs_quit_early == len(kernel.search_space) - 1

    def test_early_quit_shortens_campaign(self, small_mha):
        kernel = _kernel_with_space(small_mha)
        def timing(k, cfg):
            return 1e-6 if cfg is kernel.search_space[0] else 1e-4
        with_quit = tune_kernel(kernel, timing, alpha=0.25).tuning_wall_time
        without = tune_kernel(kernel, timing, alpha=1e9).tuning_wall_time
        assert with_quit < without

    def test_wall_time_counts_runs(self, small_mha):
        kernel = _kernel_with_space(small_mha, n=1)
        res = tune_kernel(kernel, lambda k, c: 1e-3)
        assert res.tuning_wall_time == pytest.approx(120 * 1e-3)

    def test_timings_recorded(self, small_mha):
        """The campaign times every config of the space, once each."""
        kernel = _kernel_with_space(small_mha)
        timed = []
        tune_kernel(kernel, lambda k, c: timed.append(c) or 1e-3)
        assert timed == list(kernel.search_space)

    def test_pick_best(self, small_mha):
        kernel = _kernel_with_space(small_mha)
        results = [
            TuneResult(kernel, kernel.search_space[0], t, 1, 0, 0.0)
            for t in (3.0, 1.0, 2.0)
        ]
        assert pick_best(results).best_time == 1.0

    def test_pick_best_empty_raises(self):
        with pytest.raises(ValueError):
            pick_best([])


class TestMemoryPlanner:
    def test_inputs_outputs_global(self, small_mha):
        kernel = _kernel_with_space(small_mha)
        levels = plan_memory_levels(kernel)
        for t in ("Q", "K", "V", "Out"):
            assert levels[t] == GLOBAL

    def test_aggregates_in_registers(self, small_mha):
        """The running max/sum live in registers, like FlashAttention's
        online statistics."""
        kernel = _kernel_with_space(small_mha)
        levels = plan_memory_levels(kernel)
        outputs = set(kernel.exec_graph.output_tensors)
        for s in kernel.plan.stages:
            if s.output in levels and s.output not in outputs:
                assert levels[s.output] == REGISTER

    def test_a2o_sink_in_shared(self, small_mha):
        """QK — the sink of GEMM1's All-to-One — maps to shared memory
        (section 5.4)."""
        kernel = _kernel_with_space(small_mha)
        levels = plan_memory_levels(kernel)
        assert levels["QK"] == SHARED

    def test_o2o_chain_in_registers(self, small_mha):
        kernel = _kernel_with_space(small_mha)
        levels = plan_memory_levels(kernel)
        sub_out = next(op.output for op in kernel.exec_graph.ops
                       if op.kind == "sub")
        assert levels[sub_out] == REGISTER

    def test_every_tensor_assigned(self, small_ln):
        from repro.core.builder import build_smg as bs
        smg = bs(small_ln)
        plan = plan_temporal_slice(smg, "n")
        kernel = KernelSchedule("k", smg, ("m",), plan)
        levels = plan_memory_levels(kernel)
        assert set(levels) == set(kernel.exec_graph.tensors)

    def test_level_query_helpers(self, small_mha):
        kernel = _kernel_with_space(small_mha)
        kernel.memory_levels = plan_memory_levels(kernel)
        assert set(shared_tensors(kernel)) | set(register_tensors(kernel)) \
            <= set(kernel.exec_graph.tensors)


# ----------------------------------------------------------------------
# plan_memory_levels reads the kernel's own SMG when it describes the
# execution graph; a fresh build stays the oracle (and the auditor's way)
# ----------------------------------------------------------------------


def _levels_from_a_fresh_smg(kernel):
    """The planner as it was: always a structural copy of the SMG."""
    graph = kernel.exec_graph
    smg = build_smg(graph, name=f"{kernel.name}@oracle")
    inputs, outputs = set(graph.input_tensors), set(graph.output_tensors)
    staged = set(kernel.plan.stage_outputs) if kernel.plan else set()
    levels = {}
    for t in graph.tensors:
        if t in inputs or t in outputs:
            levels[t] = GLOBAL
        elif t in staged:
            levels[t] = REGISTER
        elif (any(m.kind is O2A for m in smg.out_edges(t))
              or any(m.kind is A2O for m in smg.in_edges(t))):
            levels[t] = SHARED
        else:
            levels[t] = REGISTER
    return levels


class TestMemoryPlanReusesTheKernelsSMG:
    @pytest.mark.parametrize("gpu", [AMPERE, VOLTA], ids=lambda g: g.name)
    def test_levels_are_those_of_a_fresh_smg(self, gpu):
        schedules = [compile_for(build(), gpu)[0]
                     for build in SUBGRAPHS.values()]
        schedules += [sub.schedule for sub in compile_model_for(
            build_model("bert", 1, seq=128), gpu).subprograms]
        # Layout-barrier kernels have no SMG and no memory plan.
        kernels = [k for s in schedules for k in s.kernels
                   if not k.meta.get("barrier")]
        assert len(kernels) >= 15
        for kernel in kernels:
            assert kernel.memory_levels == plan_memory_levels(kernel) \
                == _levels_from_a_fresh_smg(kernel), kernel.name
            assert check_memory_plan(kernel) == [], kernel.name
        # Both branches ran: the SMG's own graph, and a UTA rewrite.
        assert {k.exec_graph is k.smg.graph for k in kernels} == {True, False}

    def test_at_most_one_smg_is_built_per_slicing(self, monkeypatch):
        """None: the planner reads One-to-All sources and All-to-One sinks
        from the ops' access forms, also for graphs UTA rewrote."""
        built = []
        monkeypatch.setattr(
            memory_planner, "build_smg",
            lambda graph, name=None: built.append(name)
            or build_smg(graph, name=name))
        rc = AMPERE.resource_config()
        rewritten = 0
        for build in SUBGRAPHS.values():
            smg = build_smg(build())
            result = resource_aware_slicing(smg, rc)
            assert result.candidates
            for kernel in result.candidates:
                plan_memory_levels(kernel)
            rewritten += sum(k.exec_graph is not smg.graph
                             for k in result.candidates)
        assert built == []
        assert rewritten >= 2
