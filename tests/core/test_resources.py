"""checkRsrc/enumCfg through a :class:`BlockFootprint` (section 5.1).

The per-configuration graph walk the compiler used before the footprint
existed lives on here, verbatim, as the oracle: the footprint must return
the same integers on every lattice point and ``enumerate_configs`` the same
list in the same order — the search space is part of the schedule JSON and
of every TuneDB fingerprint.  The footprint's per-config ``estimate`` is in
turn the oracle for its whole-lattice ``lattice_fits``.  Alongside them: the
monotonicity laws the tuner relies on, and count-based guards that the
graph is analysed once per kernel — by enumCfg and by the device model's
tuning campaign alike — that enumCfg builds no object per lattice point,
and that retained schedules share their value objects.
"""

import math
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import resources, scheduler
from repro.core.builder import build_smg
from repro.core.resources import (
    BlockFootprint,
    BlockResources,
    ResourceConfig,
    check_resources,
    enumerate_configs,
    estimate_block_resources,
)
from repro.core.schedule import KernelSchedule, ScheduleConfig
from repro.core.scheduler import resource_aware_slicing
from repro.core.temporal_slicer import TemporalSliceError, plan_temporal_slice
from repro.hw import AMPERE, VOLTA
from repro.hw import simulator as hw_simulator
from repro.hw.event_sim import EventDrivenSimulator
from repro.hw.simulator import DeviceSimulator, KernelTrafficPlan
from repro.ir import GraphBuilder
from repro.ir.graph import DataflowGraph
from repro.ir.ops import pow2_range
from repro.ir.tensor import DTYPE_BYTES, TensorSpec
from repro.models import (
    build_model,
    layernorm_graph,
    lstm_cell_graph,
    mha_graph,
    mlp_graph,
    softmax_gemm_graph,
)
from repro.pipeline import make_compiler
from repro.tune import GuidedTuner, TuneDB, gpu_fingerprint
from tests.test_fuzz_compile import random_graph

_ACCUM_BYTES = 4


# ----------------------------------------------------------------------
# The oracle: the parent commit's per-config walk, kept verbatim
# ----------------------------------------------------------------------


def oracle_estimate(kernel: KernelSchedule, config: ScheduleConfig,
                    rc: ResourceConfig) -> BlockResources:
    graph = kernel.exec_graph
    inputs = set(graph.input_tensors)
    outputs = set(graph.output_tensors)
    plan = kernel.plan
    agg_outputs = set(plan.stage_outputs) if plan is not None else set()

    ops = graph.topological_ops()
    last_use: dict[str, int] = {}
    consumer_last: dict[str, int] = {}
    for i, op in enumerate(ops):
        for t in op.inputs:
            last_use[t] = i
            consumer_last[t] = i
    for t in outputs:
        last_use[t] = len(ops)

    def block_bytes(tensor: str) -> int:
        spec = graph.tensors[tensor]
        return (kernel.tensor_block_elems(tensor, config)
                * DTYPE_BYTES[spec.dtype])

    reg_bytes = 0
    for t in agg_outputs:
        elems = kernel.tensor_block_elems(t, config)
        reg_bytes += elems * _ACCUM_BYTES
    reg_bytes += 64 * rc.max_threads_per_block // 4

    peak_smem = 0
    live: set[str] = set()
    for i, op in enumerate(ops):
        for t in op.inputs:
            if t not in inputs and t not in agg_outputs:
                live.add(t)
        if op.output not in agg_outputs:
            live.add(op.output)
        stream = sum(
            min(block_bytes(t), rc.stream_buffer_bytes)
            for t in op.inputs if t in inputs
        )
        resident = sum(
            block_bytes(t) for t in live
            if t not in inputs and t not in outputs
        )
        out_bytes = 0
        for t in live:
            if t in outputs and t not in inputs and t not in agg_outputs:
                if consumer_last.get(t, -1) > i:
                    out_bytes += block_bytes(t)
                else:
                    out_bytes += min(block_bytes(t), rc.stream_buffer_bytes)
        peak_smem = max(peak_smem, resident + stream + out_bytes)
        live = {t for t in live if last_use.get(t, -1) > i}

    return BlockResources(smem_bytes=peak_smem, reg_bytes=reg_bytes)


def oracle_choices(kernel: KernelSchedule) -> tuple[list, list]:
    """The parent's enumCfg lattice: block sizes per spatial dim, tiles."""
    dims: list[tuple[str, list[int]]] = []
    for dim in kernel.spatial_dims:
        size = kernel.smg.dim_size(dim)
        if size <= 4 or not kernel.smg.mappings_along(dim):
            choices = [1]
        else:
            choices = [b for b in pow2_range(2, min(size, 256)) if b <= size]
            choices = choices or [size]
        dims.append((dim, choices))

    if kernel.plan is not None:
        tsize = kernel.smg.dim_size(kernel.plan.dim)
        tiles = [t for t in pow2_range(16, min(tsize, 256)) if t <= tsize]
        tiles = tiles or [tsize]
    else:
        tiles = [None]
    return dims, tiles


def lattice_points(dims: list, tiles: list) -> list[ScheduleConfig]:
    """``product(*dims) x tiles`` in enumeration order."""
    stack: list[list[tuple[str, int]]] = [[]]
    for dim, choices in dims:
        stack = [prefix + [(dim, b)] for prefix in stack for b in choices]
    return [ScheduleConfig(block=tuple(blocks), tile=tile)
            for blocks in stack for tile in tiles]


def oracle_lattice(kernel: KernelSchedule) -> list[ScheduleConfig]:
    """Every point the parent's enumCfg visited, in its order."""
    return lattice_points(*oracle_choices(kernel))


def oracle_enumerate(kernel: KernelSchedule, rc: ResourceConfig,
                     max_configs: int = 64) -> list[ScheduleConfig]:
    configs = [cfg for cfg in oracle_lattice(kernel)
               if oracle_estimate(kernel, cfg, rc).fits(rc)]
    target = math.log2(64 * 64)

    def cfg_key(cfg: ScheduleConfig) -> tuple:
        vol = 1
        for _d, b in cfg.block:
            vol *= b
        return (abs(math.log2(vol) - target), -(cfg.tile or 0))

    configs.sort(key=cfg_key)
    return configs[:max_configs]


# ----------------------------------------------------------------------
# Differential: the zoo and the seven subgraphs, two GPU presets
# ----------------------------------------------------------------------

ZOO = [(name, seq) for name in ("bert", "albert", "gpt2", "t5", "llama2")
       for seq in (128, 512)]


def zoo_programs() -> list:
    """The benchmark spine's model zoo at batch 1 (vit: 224 px)."""
    programs = [build_model(name, 1, seq=seq) for name, seq in ZOO]
    programs.append(build_model("vit", 1))
    return programs


SUBGRAPHS = {
    "mlp": lambda: mlp_graph(8, 256, 64, 64),
    "lstm": lambda: lstm_cell_graph(64, 128),
    "layernorm": lambda: layernorm_graph(256, 256),
    "mha": lambda: mha_graph(1, 8, 128, 128, 64),
    "mha-decode": lambda: mha_graph(1, 8, 1, 128, 64),
    "mha-long": lambda: mha_graph(2, 8, 512, 512, 64),
    "softmax-gemm": lambda: softmax_gemm_graph(512, 1024, 64),
}


@pytest.fixture(scope="module", params=[AMPERE, VOLTA], ids=lambda g: g.name)
def enumerated(request):
    """Every ``enumerate_configs`` call Algorithm 1 makes while compiling
    the zoo's unique subprograms and the subgraphs for one GPU: spatial-only
    and temporal candidates, partition probes included."""
    gpu = request.param
    calls: list[tuple[KernelSchedule, ResourceConfig, int, list]] = []
    real = scheduler.enumerate_configs

    def recording(kernel, rc, max_configs=64):
        out = real(kernel, rc, max_configs)
        calls.append((kernel, rc, max_configs, out))
        return out

    scheduler.enumerate_configs = recording
    try:
        for program in zoo_programs():
            make_compiler(gpu).compile_model(program)
        for build in SUBGRAPHS.values():
            make_compiler(gpu).compile_graph(build())
    finally:
        scheduler.enumerate_configs = real
    return calls


class TestFootprintEqualsTheWalk:
    def test_every_lattice_point_of_the_zoo(self, enumerated):
        points = 0
        slicings = set()
        for kernel, rc, _max, _out in enumerated:
            footprint = BlockFootprint(kernel)
            slicings.add(kernel.meta["slicing"])
            for cfg in oracle_lattice(kernel):
                assert footprint.estimate(cfg, rc) \
                    == oracle_estimate(kernel, cfg, rc), (kernel.name, cfg)
                points += 1
        assert slicings == {"spatial", "spatial+temporal"}
        assert points > 10_000

    def test_search_space_is_the_parents_list_in_order(self, enumerated):
        for kernel, rc, max_configs, out in enumerated:
            assert out == oracle_enumerate(kernel, rc, max_configs), \
                kernel.name

    def test_one_shot_entry_points_agree(self, small_mha):
        smg = build_smg(small_mha)
        kernel = KernelSchedule("k", smg, ("m",),
                                plan_temporal_slice(smg, "l"))
        rc = AMPERE.resource_config()
        for cfg in oracle_lattice(kernel):
            expected = oracle_estimate(kernel, cfg, rc)
            assert estimate_block_resources(kernel, cfg, rc) == expected
            assert check_resources(kernel, cfg, rc) == expected.fits(rc)

    @pytest.mark.parametrize("cfg", [
        # names a dim twice: the first entry wins
        ScheduleConfig(block=(("m", 8), ("m", 64)), tile=16),
        # a tile on a dim that also has a block: the block wins
        ScheduleConfig(block=(("m", 32), ("l", 4)), tile=64),
        # block and tile larger than the dim: clipped to its size
        ScheduleConfig(block=(("m", 4096),), tile=4096),
        # a dim the kernel does not have, and one it does not slice
        ScheduleConfig(block=(("zz", 2), ("dk", 8)), tile=None),
    ], ids=["dim-twice", "tile-and-block", "over-size", "foreign-dims"])
    def test_odd_configs(self, small_mha, cfg):
        smg = build_smg(small_mha)
        rc = AMPERE.resource_config()
        for plan in (None, plan_temporal_slice(smg, "l")):
            kernel = KernelSchedule("k", smg, ("m",), plan)
            assert BlockFootprint(kernel).estimate(cfg, rc) \
                == oracle_estimate(kernel, cfg, rc)


# ----------------------------------------------------------------------
# The lattice evaluator: estimate() is the oracle, point by point
# ----------------------------------------------------------------------


def assert_lattice_is_the_per_config_walk(kernel, dims, tiles, rc):
    footprint = BlockFootprint(kernel)
    fits = footprint.lattice_fits(dims, tiles, rc)
    assert fits.dtype == bool
    assert fits.shape == (*(len(sizes) for _dim, sizes in dims), len(tiles))
    assert fits.ravel().tolist() == [
        footprint.estimate(cfg, rc).fits(rc)
        for cfg in lattice_points(dims, tiles)]
    return fits


def matmul_kernel(m: int, n: int, k: int) -> KernelSchedule:
    """C[m,n] = A[m,k] B[k,n], sliced spatially on m and n (both carry
    mappings, so both are tuned) and temporally on k."""
    b = GraphBuilder("mm")
    b.matmul(b.input("A", [("m", m), ("k", k)]),
             b.input("B", [("k", k), ("n", n)]), reduce_dim="k",
             out_name="C")
    smg = build_smg(b.build())
    return KernelSchedule("mm", smg, ("m", "n"),
                          plan_temporal_slice(smg, "k"))


class TestTheLatticeIsEvaluatedAtOnce:
    def test_fits_array_of_every_enumeration_of_the_zoo(self, enumerated):
        points = rejected = 0
        for kernel, rc, _max, _out in enumerated:
            fits = assert_lattice_is_the_per_config_walk(
                kernel, *oracle_choices(kernel), rc)
            points += fits.size
            rejected += fits.size - int(fits.sum())
        assert points > 10_000 and 0 < rejected < points

    def test_a_spatial_dim_that_is_also_the_temporal_dim(self, small_mha):
        """The block wins; the tile axis stays in the lattice and the
        rank."""
        smg = build_smg(small_mha)
        kernel = KernelSchedule("k", smg, ("m", "l"),
                                plan_temporal_slice(smg, "l"))
        for rc in (AMPERE.resource_config(),
                   ResourceConfig(16 * 1024, 24 * 1024)):
            dims, tiles = oracle_choices(kernel)
            assert len(tiles) > 1 and len(dims[1][1]) > 1
            fits = assert_lattice_is_the_per_config_walk(
                kernel, dims, tiles, rc)
            # The tile never changes the verdict ...
            assert (fits == fits[..., :1]).all()
            # ... and still orders the survivors.
            assert enumerate_configs(kernel, rc, 12) \
                == oracle_enumerate(kernel, rc, 12)

    def test_dims_the_footprint_does_not_know(self, small_mha):
        """A dim foreign to the graph, one named twice (the first entry
        wins) and sizes past the dim are all legal lattice axes."""
        smg = build_smg(small_mha)
        rc = ResourceConfig(24 * 1024, 32 * 1024)
        for plan, tiles in ((None, [None]),
                            (plan_temporal_slice(smg, "l"), [16, 64, 4096])):
            kernel = KernelSchedule("k", smg, ("m",), plan)
            fits = assert_lattice_is_the_per_config_walk(
                kernel, [("zz", [2, 4]), ("m", [8, 64, 4096]),
                         ("m", [1, 2])], tiles, rc)
            assert fits.any() and not fits.all()
            assert (fits == fits[:1, :, :1, :]).all()

    def test_one_point_and_no_point(self, small_mha):
        smg = build_smg(small_mha)
        kernel = KernelSchedule("k", smg, ("m",))
        roomy, tiny = AMPERE.resource_config(), ResourceConfig(256, 1 << 20)
        assert assert_lattice_is_the_per_config_walk(
            kernel, [("m", [8])], [None], roomy).tolist() == [[True]]
        assert assert_lattice_is_the_per_config_walk(
            kernel, [], [None], tiny).tolist() == [False]
        assert not assert_lattice_is_the_per_config_walk(
            kernel, *oracle_choices(kernel), tiny).any()
        assert enumerate_configs(kernel, tiny) == []
        assert enumerate_configs(KernelSchedule("k", smg, ()), roomy) \
            == [ScheduleConfig(block=(), tile=None)]

    def test_rank_ties_keep_enumeration_order(self):
        """Two tuned dims give equal volumes many ways round, and a
        temporal dim below 16 gives the one non-power-of-two tile
        (``choices or [size]``): every key ties on the tile."""
        kernel = matmul_kernel(40, 24, 12)
        rc = AMPERE.resource_config()
        dims, tiles = oracle_choices(kernel)
        assert tiles == [12] and [len(s) for _d, s in dims] == [5, 4]
        assert_lattice_is_the_per_config_walk(kernel, dims, tiles, rc)
        everything = enumerate_configs(kernel, rc, 64)
        assert everything == oracle_enumerate(kernel, rc, 64)
        assert len(everything) == 20
        tied = [c for c in everything if math.prod(c.as_dict().values()) == 64]
        assert [c.block_of("m") for c in tied] == [4, 8, 16, 32]
        for max_configs in (1, 2, 7):
            assert enumerate_configs(kernel, rc, max_configs) \
                == everything[:max_configs]

    def test_a_volume_that_is_not_a_power_of_two(self, monkeypatch):
        """Not reachable through ``pow2_range``; the key must still be
        ``math.log2`` of the int, not of a float or an int64."""
        monkeypatch.setattr(
            "repro.core.resources.pow2_range",
            lambda lo, hi: [b for b in (3, 5, 6, 10, 12, 24) if lo <= b <= hi])
        monkeypatch.setattr(
            sys.modules[__name__], "pow2_range",
            lambda lo, hi: [b for b in (3, 5, 6, 10, 12, 24) if lo <= b <= hi])
        kernel = matmul_kernel(40, 24, 12)
        rc = AMPERE.resource_config()
        out = enumerate_configs(kernel, rc, 64)
        assert out == oracle_enumerate(kernel, rc, 64)
        assert {math.prod(c.as_dict().values()) for c in out} >= {9, 15, 30}

    @pytest.mark.parametrize("max_configs", [1, 8])
    def test_no_object_per_lattice_point(self, monkeypatch, max_configs):
        """enumCfg never costs a single config and constructs only what it
        returns — a per-point loop cannot creep back."""
        rc = AMPERE.resource_config()
        kernels = [k for name in ("mha", "mha-long", "softmax-gemm")
                   for k in _candidates(SUBGRAPHS[name]())]
        estimates, made = [], []
        real_of = ScheduleConfig.of.__func__
        monkeypatch.setattr(
            BlockFootprint, "estimate",
            lambda self, cfg, rc: estimates.append(cfg))
        monkeypatch.setattr(
            ScheduleConfig, "of", classmethod(
                lambda cls, *a, **kw: made.append(a) or real_of(cls, *a, **kw)))
        points = returned = 0
        for kernel in kernels:
            points += len(oracle_lattice(kernel))
            del made[:]
            out = enumerate_configs(kernel, rc, max_configs)
            assert len(made) == len(out) <= max_configs
            returned += len(out)
        assert estimates == []
        assert points > 2 * returned > 0

    def test_a_footprint_too_large_for_int64_is_refused_at_build(self):
        """Below the bound a lattice cannot wrap; above it the footprint
        does not exist, so neither evaluator runs."""
        assert BlockFootprint(matmul_kernel(1 << 20, 1 << 20, 1 << 19))
        with pytest.raises(ValueError, match="overflows"):
            BlockFootprint(matmul_kernel(1 << 31, 24, 1 << 30))
        with pytest.raises(ValueError, match="footprint overflows"):
            enumerate_configs(matmul_kernel(1 << 31, 24, 1 << 30),
                              AMPERE.resource_config())

    def test_a_block_volume_too_large_for_int64_is_refused(self):
        """Only a hand-built kernel gets there (a dim sliced eight times
        over); it is refused before any lattice array exists."""
        kernel = matmul_kernel(256, 256, 64)
        kernel.spatial_dims = ("m",) * 8
        with pytest.raises(ValueError, match="volume overflows"):
            enumerate_configs(kernel, AMPERE.resource_config())


# ----------------------------------------------------------------------
# Hypothesis: random graphs, arbitrary configs, and the two laws
# ----------------------------------------------------------------------

_SETTINGS = settings(max_examples=60, deadline=None,
                     suppress_health_check=[HealthCheck.too_slow])

_DIMS = ("b", "m", "n", "zz")


@st.composite
def random_kernel(draw):
    graph = draw(random_graph())
    smg = build_smg(graph)
    plan = None
    if draw(st.booleans()):
        try:
            plan = plan_temporal_slice(smg, "n")
        except TemporalSliceError:
            pass
    spatial = tuple(d for d in ("b", "m") if d in smg.dims)
    return KernelSchedule("k", smg, spatial, plan)


#: Repeated dims, foreign dims, blocks past the dim size and a tile next
#: to a block on the same dim all come out of this.
_configs = st.builds(
    ScheduleConfig,
    block=st.lists(st.tuples(st.sampled_from(_DIMS), st.integers(1, 40)),
                   max_size=4).map(tuple),
    tile=st.none() | st.integers(1, 40))

_rcs = st.builds(ResourceConfig,
                 smem_per_block=st.just(48 * 1024),
                 regs_per_block=st.just(64 * 1024),
                 max_threads_per_block=st.sampled_from((256, 1024)),
                 stream_buffer_bytes=st.sampled_from((64, 1024, 16 * 1024)))


class TestFootprintProperties:
    @_SETTINGS
    @given(kernel=random_kernel(), rc=_rcs,
           cfgs=st.lists(_configs, min_size=1, max_size=6))
    def test_equals_the_walk_on_random_graphs(self, kernel, rc, cfgs):
        footprint = BlockFootprint(kernel)
        for cfg in cfgs:
            assert footprint.estimate(cfg, rc) \
                == oracle_estimate(kernel, cfg, rc)

    @_SETTINGS
    @given(kernel=random_kernel(), rc=_rcs, data=st.data())
    def test_usage_never_falls_when_a_block_or_the_tile_grows(
            self, kernel, rc, data):
        """smem_bytes and reg_bytes are non-decreasing in every block
        extent and in the tile."""
        dims = kernel.smg.dims
        small = {d: data.draw(st.integers(1, 40), label=f"block {d}")
                 for d in dims}
        grown = {d: b + data.draw(st.integers(0, 40), label=f"grow {d}")
                 for d, b in small.items()}
        tile = data.draw(st.integers(1, 40), label="tile")
        tile_grown = tile + data.draw(st.integers(0, 40), label="grow tile")
        footprint = BlockFootprint(kernel)
        lo = footprint.estimate(
            ScheduleConfig(tuple(small.items()), tile), rc)
        hi = footprint.estimate(
            ScheduleConfig(tuple(grown.items()), tile_grown), rc)
        assert lo.smem_bytes <= hi.smem_bytes
        assert lo.reg_bytes <= hi.reg_bytes

    @_SETTINGS
    @given(kernel=random_kernel(), rc=_rcs,
           dims=st.lists(st.tuples(
               st.sampled_from(_DIMS),
               st.lists(st.integers(1, 40), min_size=1, max_size=3)),
               max_size=3),
           tiles=st.just([None]) | st.lists(st.integers(1, 40),
                                            min_size=1, max_size=3))
    def test_any_lattice_equals_estimate_point_by_point(
            self, kernel, rc, dims, tiles):
        """Repeated and foreign dims, blocks past the dim size, a tile
        next to a block on the temporal dim, unsorted sizes."""
        assert_lattice_is_the_per_config_walk(kernel, dims, tiles, rc)

    @_SETTINGS
    @given(kernel=random_kernel(), rc=_rcs,
           max_configs=st.integers(1, 12))
    def test_enumeration_is_the_parents_on_random_graphs(
            self, kernel, rc, max_configs):
        assert enumerate_configs(kernel, rc, max_configs) \
            == oracle_enumerate(kernel, rc, max_configs)


# ----------------------------------------------------------------------
# Count-based guards: one analysis per kernel, shared value objects
# ----------------------------------------------------------------------


def _candidates(graph):
    result = resource_aware_slicing(build_smg(graph),
                                    AMPERE.resource_config())
    assert result.candidates
    return result.candidates


def count_builders(monkeypatch) -> tuple[list, list]:
    """``(plans, footprints)``: the kernel of every
    :class:`KernelTrafficPlan` and :class:`BlockFootprint` built from now
    on, in build order."""
    plans, footprints = [], []

    class CountingPlan(KernelTrafficPlan):
        def __init__(self, kernel):
            plans.append(kernel)
            super().__init__(kernel)

    class CountingFootprint(BlockFootprint):
        def __init__(self, kernel):
            footprints.append(kernel)
            super().__init__(kernel)

    monkeypatch.setattr(hw_simulator, "KernelTrafficPlan", CountingPlan)
    monkeypatch.setattr(resources, "BlockFootprint", CountingFootprint)
    return plans, footprints


class TestTheGraphIsWalkedOncePerKernel:
    @pytest.mark.parametrize("build", [SUBGRAPHS["mha"], SUBGRAPHS["mlp"]],
                             ids=["mha", "mlp"])
    def test_enumerate_configs_sorts_the_graph_once(self, build,
                                                    monkeypatch):
        rc = AMPERE.resource_config()
        for kernel in _candidates(build()):
            calls = []
            real = DataflowGraph.topological_ops

            def counting(self, _real=real, _calls=calls):
                _calls.append(self.name)
                return _real(self)

            monkeypatch.setattr(DataflowGraph, "topological_ops", counting)
            assert len(oracle_lattice(kernel)) > 1
            # Slicing already enumerated it: forget that footprint.
            monkeypatch.setattr(resources, "_recent", ())
            enumerate_configs(kernel, rc)
            monkeypatch.setattr(DataflowGraph, "topological_ops", real)
            assert len(calls) == 1

    def test_a_tuning_campaign_builds_one_footprint_per_kernel(
            self, monkeypatch, tmp_path):
        """enumCfg builds each candidate's footprint; the memory plan and
        the device model's traffic plan reuse it.  One footprint and one
        traffic plan per candidate kernel, with a slicing round's
        candidates enumerated before either is tuned."""
        plans, footprints = count_builders(monkeypatch)
        sim = DeviceSimulator(AMPERE)
        tuner = GuidedTuner(TuneDB(tmp_path), gpu_fingerprint(AMPERE))
        kernels = []
        for build in SUBGRAPHS.values():
            candidates = _candidates(build())  # enumCfg + memory plan
            for kernel in candidates:
                result = tuner.tune(kernel, sim.kernel_time)
                assert result.configs_evaluated == len(kernel.search_space)
            kernels += candidates
        assert sum(len(k.search_space) for k in kernels) > 5 * len(kernels)
        for built in (plans, footprints):
            assert len(built) == len(kernels)
            assert all(a is b for a, b in zip(built, kernels))

    def test_the_memo_is_per_simulator_and_by_identity(self, small_mha):
        """Two equal-looking kernels never share a plan, and neither do
        two simulators."""
        first, second = _candidates(small_mha)[-1], _candidates(small_mha)[-1]
        sim, other = DeviceSimulator(AMPERE), DeviceSimulator(AMPERE)
        cfg = first.search_space[0]
        assert sim.kernel_time(first, cfg) == other.kernel_time(first, cfg)
        plan_of_first = sim._last_plan[1]
        assert sim._last_plan[0] is first is other._last_plan[0]
        assert other._last_plan[1] is not plan_of_first
        assert sim.kernel_time(second, cfg) == other.kernel_time(first, cfg)
        assert sim._last_plan[0] is second
        assert sim._last_plan[1] is not plan_of_first
        # The event simulator rides on its analytical model's memo.
        ev = EventDrivenSimulator(AMPERE)
        ev.simulate_kernel(first, cfg)
        held = ev._analytic._last_plan
        ev.simulate_kernel(first, first.search_space[-1])
        assert ev._analytic._last_plan is held

    def test_no_graph_access_after_the_first_kernel_time(self, monkeypatch):
        """Between the first and the last ``kernel_time`` of a campaign
        nothing asks the graph for an op, an order or a tensor size."""
        sim = DeviceSimulator(AMPERE)
        campaigns = 0
        for build in SUBGRAPHS.values():
            for kernel in _candidates(build()):
                space = kernel.search_space
                if len(space) < 2:
                    continue
                first = sim.kernel_time(kernel, space[0])
                calls = []
                with monkeypatch.context() as patch:
                    for cls, name in ((DataflowGraph, "op"),
                                      (DataflowGraph, "topological_ops"),
                                      (TensorSpec, "nbytes")):
                        patch.setattr(
                            cls, name,
                            lambda *a, _n=name, **kw: calls.append(_n))
                    times = [sim.kernel_time(kernel, cfg) for cfg in space]
                assert calls == []
                assert times[0] == first
                campaigns += 1
        assert campaigns >= len(SUBGRAPHS)


_RETENTION_SCRIPT = """
import gc
from repro.core.mappings import Mapping
from repro.core.schedule import ScheduleConfig
from repro.core.spaces import DataSpace, IterationSpace
from repro.hw import AMPERE
from repro.models import build_model
from repro.pipeline import compile_model_for

SHARED = (ScheduleConfig, Mapping, DataSpace, IterationSpace)

def census():
    gc.collect()
    counts = dict.fromkeys(SHARED, 0)
    for obj in gc.get_objects():
        if type(obj) in counts:
            counts[type(obj)] += 1
    return counts

program = build_model('bert', 1, seq=128)
first = compile_model_for(program, AMPERE)
before = census()
assert all(before.values()), before
second = compile_model_for(program, AMPERE)
after = census()
assert after == before, (before, after)
for a, b in zip(first.subprograms, second.subprograms):
    for ka, kb in zip(a.schedule.kernels, b.schedule.kernels):
        assert ka.config is kb.config
        assert all(x is y for x, y in zip(ka.search_space, kb.search_space))
        assert all(x is y for x, y in zip(ka.smg.mappings, kb.smg.mappings))
del first, second, a, b, ka, kb
gc.collect()
assert not any(len(cls._instances) for cls in SHARED), \\
    [(cls.__name__, len(cls._instances)) for cls in SHARED]
print('ok')
"""


class TestRetainedSchedulesShareTheirValues:
    def test_a_second_compile_retains_no_new_instances(self):
        """Compile bert-128 twice: with the first result alive the second
        adds no ScheduleConfig/Mapping/DataSpace/IterationSpace instance,
        and with both dropped the flyweight tables are empty — weak, not a
        leak.  In a fresh interpreter, so nothing else holds schedules."""
        src = pathlib.Path(__file__).parent.parent.parent / "src"
        proc = subprocess.run(
            [sys.executable, "-c", _RETENTION_SCRIPT],
            env={"PYTHONPATH": str(src), "PATH": ""},
            capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"

    def test_flyweights_compare_and_serialize_like_plain_values(self):
        plain = ScheduleConfig(block=(("m", 32),), tile=16)
        shared = ScheduleConfig.of(block=(("m", 32),), tile=16)
        assert shared == plain and hash(shared) == hash(plain)
        assert shared is not plain
        assert ScheduleConfig.of((("m", 32),), 16) is shared
        assert ScheduleConfig.of(block=(("m", 32),)) is not shared
