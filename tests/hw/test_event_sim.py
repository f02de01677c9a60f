"""Cross-check: the event-driven simulator vs the analytical cost model."""

import math

import pytest

from repro.hw import AMPERE, ARCHITECTURES, VOLTA, DeviceSimulator
from repro.hw.event_sim import (
    EventDrivenSimulator,
    cross_check,
    cross_check_hierarchy,
)
from repro.models import (
    layernorm_graph,
    lstm_cell_graph,
    mha_graph,
    mlp_graph,
)
from repro.pipeline import compile_for
from repro.runtime import random_feeds
from repro.runtime.tracing import trace_program
from tests.hw.sweep import SweepSimulator


def _kernels():
    out = []
    for graph in (mha_graph(2, 8, 512, 512, 64),
                  layernorm_graph(4096, 4096),
                  mlp_graph(6, 8192, 256, 256)):
        sched, _ = compile_for(graph, AMPERE)
        out.extend(sched.kernels)
    return out


@pytest.fixture(scope="module")
def kernels():
    return _kernels()


class TestCrossCheck:
    def test_magnitude_agreement(self, kernels):
        """The two models agree within a small constant factor on every
        compiled kernel."""
        for kernel in kernels:
            analytic, event = cross_check(kernel, AMPERE)
            ratio = event / analytic
            assert 0.3 < ratio < 3.0, (kernel.name, ratio)

    def test_config_ranking_correlates(self, kernels):
        """The auto-tuner consumes *rankings*: the event simulator's best
        configurations must be near the analytical model's best."""
        sim = SweepSimulator(AMPERE)
        ev = EventDrivenSimulator(AMPERE)
        for kernel in kernels:
            if len(kernel.search_space) < 4:
                continue
            analytic_rank = [c for c, _t in sim.sweep_configs(kernel)]
            event_rank = [c for c, _t in ev.rank_configs(kernel)]
            # The analytical winner sits in the event sim's top third.
            pos = event_rank.index(analytic_rank[0])
            assert pos <= max(2, len(event_rank) // 3)

    def test_waves_counted(self):
        graph = mha_graph(8, 16, 1024, 1024, 64)
        sched, _ = compile_for(graph, AMPERE)
        result = EventDrivenSimulator(AMPERE).simulate_kernel(
            sched.kernels[0])
        grid = sched.kernels[0].grid_size()
        assert result.waves == math.ceil(grid / result.concurrent_blocks)

    def test_more_blocks_more_waves(self, kernels):
        ev = EventDrivenSimulator(AMPERE)
        kernel = kernels[0]
        small = ev.simulate_kernel(kernel, kernel.search_space[0])
        assert small.waves >= 1
        assert small.time_s > 0

    def test_volta_slower_than_ampere(self):
        graph = mha_graph(2, 8, 512, 512, 64)
        a_sched, _ = compile_for(graph, AMPERE)
        v_sched, _ = compile_for(graph, VOLTA)
        t_a = EventDrivenSimulator(AMPERE).simulate_kernel(
            a_sched.kernels[0]).time_s
        t_v = EventDrivenSimulator(VOLTA).simulate_kernel(
            v_sched.kernels[0]).time_s
        assert t_v > t_a

    def test_barrier_kernel_delegates(self):
        from repro.core.compiler import build_barrier_kernel
        from repro.ir import GraphBuilder
        b = GraphBuilder("g")
        x = b.input("X", [("m", 1024)])
        b.barrier("reshape", x, [("a", 2), ("c", 512)], out_name="Y")
        g = b.build()
        from repro.ir.graph import DataflowGraph
        sub = DataflowGraph("g.r", dims=g.dims)
        for t in g.tensors.values():
            sub.tensors[t.name] = t
        sub.ops = list(g.ops)
        kernel = build_barrier_kernel(sub)
        result = EventDrivenSimulator(AMPERE).simulate_kernel(kernel)
        assert result.time_s > 0


class TestEfficiencyAndOverheadParity:
    """Satellite fixes: the event simulator must honour the same manual
    efficiency factor and launch-overhead regime as the analytical model,
    or the two rank hand-tuned-library kernels differently."""

    def test_manual_efficiency_speeds_event_sim(self, kernels):
        ev = EventDrivenSimulator(AMPERE)
        kernel = kernels[0]
        base = ev.simulate_kernel(kernel).time_s
        kernel.meta["efficiency"] = 1.5
        boosted = ev.simulate_kernel(kernel).time_s
        kernel.meta.pop("efficiency")
        assert boosted <= base

    def test_ranking_agrees_with_manual_efficiency(self, kernels):
        """Rank agreement must survive meta['efficiency'] != 1.0 (the
        old event sim dropped the factor from its SIMT rate)."""
        sim = SweepSimulator(AMPERE)
        ev = EventDrivenSimulator(AMPERE)
        for kernel in kernels:
            if len(kernel.search_space) < 4:
                continue
            kernel.meta["efficiency"] = 0.45
            try:
                analytic_rank = [c for c, _t in sim.sweep_configs(kernel)]
                event_rank = [c for c, _t in ev.rank_configs(kernel)]
            finally:
                kernel.meta.pop("efficiency")
            pos = event_rank.index(analytic_rank[0])
            assert pos <= max(2, len(event_rank) // 3)

    def test_launch_overhead_param_honoured(self, kernels):
        """CUDA-graph replay overhead must reach the event sim: with the
        graph overhead the simulated time drops by exactly the delta."""
        ev = EventDrivenSimulator(AMPERE)
        kernel = kernels[0]
        eager = ev.simulate_kernel(
            kernel, launch_overhead=AMPERE.kernel_launch_overhead).time_s
        graphs = ev.simulate_kernel(
            kernel, launch_overhead=AMPERE.graph_launch_overhead).time_s
        delta = AMPERE.kernel_launch_overhead - AMPERE.graph_launch_overhead
        assert eager - graphs == pytest.approx(delta, rel=1e-9)

    def test_default_overhead_is_eager(self, kernels):
        ev = EventDrivenSimulator(AMPERE)
        kernel = kernels[0]
        default = ev.simulate_kernel(kernel).time_s
        explicit = ev.simulate_kernel(
            kernel, launch_overhead=AMPERE.kernel_launch_overhead).time_s
        assert default == explicit


class TestHierarchyReplay:
    def test_replay_hit_rate_close_to_analytic(self, kernels):
        """The granule replay and the closed-form hit model agree on the
        read hit rate for every compiled kernel."""
        for kernel in kernels:
            r = cross_check_hierarchy(kernel, AMPERE)
            if not r["replayed"]:
                continue
            assert r["hit_rate_delta"] <= 0.15, (kernel.name, r)

    def test_replay_dram_positive_and_bounded(self, kernels):
        ev = EventDrivenSimulator(AMPERE)
        sim = DeviceSimulator(AMPERE)
        for kernel in kernels:
            result = ev.simulate_kernel(kernel)
            _c, b = sim.kernel_cost(kernel)
            assert result.dram_bytes > 0
            # Normalised to the analytical totals, so never far apart.
            assert 0.5 * b.dram_bytes <= result.dram_bytes \
                <= 1.5 * b.dram_bytes


#: The calibration zoo: the Fig. 11-13 workload shapes at sizes small
#: enough to execute under the tracing executor on every preset (the
#: ragged MHA makes the grids indivisible).
CALIBRATION_SHAPES = {
    "mlp": lambda: mlp_graph(8, 256, 64, 64),
    "lstm": lambda: lstm_cell_graph(64, 128),
    "layernorm": lambda: layernorm_graph(256, 256),
    "mha": lambda: mha_graph(1, 8, 128, 128, 64),
    "mha-ragged": lambda: mha_graph(1, 4, 120, 120, 64),
}


class TestCalibration:
    """Three models, one set of books, on every preset: the traced run,
    the analytic model and the event simulator (docs/cost_model.md,
    "Calibration")."""

    @pytest.mark.parametrize("arch", sorted(ARCHITECTURES))
    @pytest.mark.parametrize("shape", sorted(CALIBRATION_SHAPES))
    def test_bytes_rank_and_hit_rate(self, shape, arch):
        gpu = ARCHITECTURES[arch]
        graph = CALIBRATION_SHAPES[shape]()
        schedule, _stats = compile_for(graph, gpu)
        _env, traces = trace_program(schedule, random_feeds(graph, seed=0))
        sim = SweepSimulator(gpu)
        ev = EventDrivenSimulator(gpu)
        for kernel in schedule.kernels:
            # Bytes: what the tracing executor really loaded is what the
            # model charged, to the byte.
            _c, breakdown = sim.kernel_cost(kernel)
            assert traces[kernel.name].load_bytes == breakdown.load_bytes, \
                kernel.name
            # Rank: the analytic winner also wins (ties by value) under
            # the event simulator - rankings are what the tuner consumes.
            if not kernel.meta.get("barrier") \
                    and len(kernel.search_space) >= 2:
                winner = sim.sweep_configs(kernel)[0][0]
                best = ev.rank_configs(kernel)[0][1]
                assert ev.simulate_kernel(kernel, winner).time_s \
                    <= 1.001 * best, kernel.name
            # Hit rate: granule replay vs the closed form.
            hier = cross_check_hierarchy(kernel, gpu)
            assert hier["hit_rate_delta"] <= 0.15, (kernel.name, hier)
