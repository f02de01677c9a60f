"""The planned cost model against the per-call derivation it replaced.

``DeviceSimulator`` characterises a kernel once (``KernelTrafficPlan``) and
then costs configurations arithmetically.  Its numbers feed the tuner's
choices, every ``modelled_*`` metric and the schedule JSON, so "close" is
not a property worth testing: every result must be ``==`` the oracle's in
``tests/hw/oracle_cost.py``, float for float, and a carried ``L2State``
must end up holding the same tensors in the same order.  (The count guards
— one plan per campaign, no graph access after it — sit with the footprint's
in ``tests/core/test_resources.py``.)  ``kernel_time`` answers a
campaign from one time vector priced over the kernel's whole search space;
every answer it gives must be the oracle's too, in any order the tuner
may ask.
"""

import copy
import random

import pytest

from repro.baselines import (
    compile_model_with_engine,
    schedule_cublaslt,
    schedule_flash_attention,
    schedule_fused_layernorm,
    schedule_pytorch,
)
from repro.core.autotuner import evaluate_search_space
from repro.core.builder import build_smg
from repro.core.schedule import KernelSchedule, ScheduleConfig
from repro.core.temporal_slicer import plan_temporal_slice
from repro.hw import AMPERE, VOLTA, L2State
from repro.hw.simulator import DeviceSimulator
from repro.models import build_model, layernorm_graph, mha_graph
from repro.pipeline import (
    compile_for,
    compile_model_for,
    simulate,
    simulate_model,
)
from tests.core.test_resources import SUBGRAPHS, ZOO, zoo_programs
from tests.hw.oracle_cost import OracleSimulator
from tests.hw.sweep import SweepSimulator


def _assert_same_cost(sim, oracle, kernel, config=None, l2=None,
                      launch_overhead=None, real=DeviceSimulator.kernel_cost):
    """One ``kernel_cost`` call through both models, the oracle on a copy
    of the carried L2 state."""
    shadow = copy.deepcopy(l2)
    got = real(sim, kernel, config, l2, launch_overhead)
    want = oracle.kernel_cost(kernel, config, shadow, launch_overhead)
    assert got == want, (kernel.name, config)
    if l2 is not None:
        assert list(l2._resident.items()) == list(shadow._resident.items())
    return got


def _audited_programs() -> list:
    """The zoo, and its language models at a second sequence length: the
    compiler no longer prices partition candidates that cannot win, so
    the zoo alone times fewer kernels than the floors below ask for."""
    names = dict.fromkeys(name for name, _seq in ZOO)
    return zoo_programs() + [build_model(name, 1, seq=256) for name in names]


@pytest.fixture(scope="module", params=[AMPERE, VOLTA], ids=lambda g: g.name)
def audited(request):
    """Compile and ``simulate`` the audited programs and the seven
    subgraphs for one GPU with every cost call checked against the oracle
    as it is made."""
    gpu = request.param
    oracle = OracleSimulator(gpu)
    real_cost = DeviceSimulator.kernel_cost
    real_counters = DeviceSimulator.kernel_counters
    real_time = DeviceSimulator.kernel_time
    seen = {"kernel_time": 0, "kernel_cost": 0, "kernel_counters": 0,
            "carried_l2": 0, "resident_reads": 0, "overheads": set(),
            "slicings": set()}

    def kernel_cost(self, kernel, config=None, l2=None,
                    launch_overhead=None):
        assert self.spec is gpu
        seen["kernel_cost"] += 1
        return _assert_same_cost(self, oracle, kernel, config, l2,
                                 launch_overhead, real=real_cost)

    def kernel_counters(self, kernel, l2, launch_overhead):
        """program_cost's per-kernel call: the oracle's counters, and the
        same carried L2 state after it."""
        assert self.spec is gpu
        held = len(l2._resident) if l2 is not None else 0
        shadow = copy.deepcopy(l2)
        got = real_counters(self, kernel, l2, launch_overhead)
        assert got == oracle.kernel_cost(kernel, None, shadow,
                                         launch_overhead)[0], kernel.name
        if l2 is not None:
            assert list(l2._resident.items()) == \
                list(shadow._resident.items())
        seen["kernel_counters"] += 1
        seen["carried_l2"] += l2 is not None
        seen["resident_reads"] += bool(held) and any(
            l2.is_resident(t) for t in kernel.exec_graph.input_tensors)
        seen["overheads"].add(launch_overhead)
        seen["slicings"].add(kernel.meta.get("slicing"))
        return got

    def kernel_time(self, kernel, config=None):
        seen["kernel_time"] += 1
        t = real_time(self, kernel, config)
        assert t == self.kernel_cost(kernel, config)[0].time_s
        return t

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeviceSimulator, "kernel_cost", kernel_cost)
        patch.setattr(DeviceSimulator, "kernel_counters", kernel_counters)
        patch.setattr(DeviceSimulator, "kernel_time", kernel_time)
        for program in _audited_programs():
            simulate_model(compile_model_for(program, gpu), gpu)
        for build in SUBGRAPHS.values():
            schedule, _stats = compile_for(build(), gpu)
            simulate(schedule, gpu)
            simulate(schedule, gpu, cuda_graphs=True)
    return seen


class TestEveryCostCallEqualsTheOracle:
    def test_while_compiling_and_simulating_the_zoo(self, audited):
        # The asserts ran inside the fixture; this pins what they covered.
        assert audited["kernel_time"] > 8_000
        assert audited["kernel_cost"] >= audited["kernel_time"]
        assert audited["kernel_counters"] > 150
        # program_cost: carried L2 state (with producer outputs actually
        # found resident) and both launch-overhead regimes.
        assert audited["carried_l2"] > 150
        assert audited["resident_reads"] > 30
        assert len(audited["overheads"] - {None}) >= 2
        assert audited["slicings"] >= {"spatial", "spatial+temporal",
                                       "barrier"}

    @pytest.mark.parametrize("gpu", [AMPERE, VOLTA], ids=lambda g: g.name)
    def test_baseline_kernels_with_manual_factors(self, gpu):
        """``efficiency``, ``input_read_multiplier``, ``output_spill_factor``
        and ``barrier`` all come from ``repro.baselines`` schedules."""
        mha = mha_graph(1, 8, 128, 128, 64)
        ln = layernorm_graph(256, 256)
        schedules = [
            schedule_flash_attention(mha, gpu, "fa1"),
            schedule_flash_attention(mha, gpu, "fa_triton"),
            schedule_fused_layernorm(ln, gpu, "ln_triton"),
            schedule_fused_layernorm(ln, gpu, "apex"),
            schedule_pytorch(mha, gpu),
            schedule_cublaslt(SUBGRAPHS["mlp"](), gpu),
        ]
        # Layout (barrier) kernels only come with whole models.
        t5 = build_model("t5", 1, seq=128)
        for engine in ("pytorch", "tensorrt"):
            model = compile_model_with_engine(t5, gpu, engine)
            schedules += [sub.schedule for sub in model.subprograms]
        kernels = [k for s in schedules for k in s.kernels]
        for key in ("efficiency", "input_read_multiplier",
                    "output_spill_factor"):
            assert any(k.meta.get(key, 1.0) != 1.0 for k in kernels), key
        assert any(k.meta.get("barrier") for k in kernels)
        sim, oracle = DeviceSimulator(gpu), OracleSimulator(gpu)
        for schedule in schedules:
            l2 = L2State(gpu.l2_capacity)
            for kernel in schedule.kernels:
                _assert_same_cost(sim, oracle, kernel)
                _assert_same_cost(sim, oracle, kernel, l2=l2,
                                  launch_overhead=gpu.graph_launch_overhead)

    def test_meta_factors_are_read_at_every_call(self, small_mha):
        """The memo holds structure only: ``efficiency`` and
        ``output_spill_factor`` changed between two calls on one simulator
        take effect, as they did before there was a plan."""
        kernel = compile_for(small_mha, AMPERE)[0].kernels[0]
        sim, oracle = DeviceSimulator(AMPERE), OracleSimulator(AMPERE)
        base = _assert_same_cost(sim, oracle, kernel)
        kernel.meta.update(efficiency=0.5, output_spill_factor=3.0)
        changed = _assert_same_cost(sim, oracle, kernel)
        assert changed[0].time_s > base[0].time_s
        assert changed[0].dram_bytes > base[0].dram_bytes

    @pytest.mark.parametrize("cfg", [
        ScheduleConfig(block=(("m", 8), ("m", 64)), tile=16),
        ScheduleConfig(block=(("m", 32), ("l", 4)), tile=64),
        ScheduleConfig(block=(("m", 4096),), tile=4096),
        ScheduleConfig(block=(("zz", 2), ("dk", 8), ("m", 7)), tile=None),
    ], ids=["dim-twice", "tile-and-block", "over-size", "foreign-dims"])
    def test_odd_configs(self, small_mha, cfg):
        smg = build_smg(small_mha)
        sim, oracle = DeviceSimulator(AMPERE), OracleSimulator(AMPERE)
        for plan in (None, plan_temporal_slice(smg, "l")):
            kernel = KernelSchedule("k", smg, ("m",), plan)
            _assert_same_cost(sim, oracle, kernel, cfg)

    def test_a_config_without_a_spatial_block_is_refused(self, small_mha):
        kernel = KernelSchedule("k", build_smg(small_mha), ("m",))
        cfg = ScheduleConfig(block=(("dk", 8),))
        for model in (DeviceSimulator(AMPERE), OracleSimulator(AMPERE)):
            with pytest.raises(ValueError, match="lacks block size"):
                model.kernel_cost(kernel, cfg)
        with pytest.raises(ValueError, match="lacks block size"):
            DeviceSimulator(AMPERE).kernel_time(kernel, cfg)


class TestSweepHeadIsTheTunersPick:
    @pytest.mark.parametrize("gpu", [AMPERE, VOLTA], ids=lambda g: g.name)
    def test_on_every_kernel_of_the_seven_subgraphs(self, gpu):
        sim = SweepSimulator(gpu)
        tied = 0
        for build in SUBGRAPHS.values():
            for kernel in compile_for(build(), gpu)[0].kernels:
                if not kernel.search_space:
                    continue
                sweep = sim.sweep_configs(kernel)
                picked = evaluate_search_space(kernel, sim.kernel_time)
                assert sweep[0][0] == picked.best_config, kernel.name
                assert sweep[0][1] == picked.best_time
                tied += len(sweep) > 1 and sweep[0][1] == sweep[1][1]
        # Exact ties at the top are common; enumeration order used to
        # decide them.
        assert tied >= 2


@pytest.fixture(scope="module", params=[AMPERE, VOLTA], ids=lambda g: g.name)
def campaigns(request):
    """``(gpu, kernels)``: every kernel with two or more configurations
    the tuner timed while compiling the audited programs and the seven
    subgraphs."""
    gpu = request.param
    timed = {}
    real = DeviceSimulator.kernel_time

    def kernel_time(self, kernel, config=None):
        if len(kernel.search_space) > 1:
            timed.setdefault(id(kernel), kernel)  # compiled kernels live on
        return real(self, kernel, config)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DeviceSimulator, "kernel_time", kernel_time)
        for program in _audited_programs():
            compile_model_for(program, gpu)
        for build in SUBGRAPHS.values():
            compile_for(build(), gpu)
    kernels = list(timed.values())
    assert len(kernels) > 400
    return gpu, kernels


@pytest.fixture()
def broadcasts(monkeypatch):
    """Counts the whole-space pricings ``kernel_time`` makes."""
    seen = []
    real = DeviceSimulator._space_times

    def space_times(self, kernel):
        seen.append(kernel)
        return real(self, kernel)

    monkeypatch.setattr(DeviceSimulator, "_space_times", space_times)
    return seen


def _oracle_times(oracle, kernel):
    return {cfg: oracle.kernel_cost(kernel, cfg)[0].time_s
            for cfg in kernel.search_space}


class TestTheBroadcastEqualsTheOracle:
    @pytest.mark.parametrize("order", ["tuner", "promoted", "shuffled"])
    def test_in_any_order(self, campaigns, broadcasts, order):
        """The tuner's order, a promoted one (two configs moved to the
        front) and a shuffled one: one broadcast per campaign, every
        answer ``==`` the oracle's."""
        gpu, kernels = campaigns
        sim, oracle = DeviceSimulator(gpu), OracleSimulator(gpu)
        rng = random.Random(7)
        for kernel in kernels:
            space = kernel.search_space
            if order == "promoted":
                front = dict.fromkeys([space[-1], space[len(space) // 2]])
                space = [*front] + [cfg for cfg in space if cfg not in front]
            elif order == "shuffled":
                space = rng.sample(space, len(space))
            want = _oracle_times(oracle, kernel)
            for cfg in space:
                assert sim.kernel_time(kernel, cfg) == want[cfg], \
                    (kernel.name, cfg)
        assert len(broadcasts) == len(kernels)
        assert all(a is b for a, b in zip(broadcasts, kernels))

    def test_meta_factors_flipped_mid_campaign(self, campaigns):
        """``efficiency`` and ``output_spill_factor`` are read at every
        call: changed halfway through a campaign, the rest of it is
        priced with the new values, then with the old ones again."""
        gpu, kernels = campaigns
        sim, oracle = DeviceSimulator(gpu), OracleSimulator(gpu)
        flipped = {"efficiency": 0.5, "output_spill_factor": 3.0}
        for kernel in kernels:
            space = kernel.search_space
            half = len(space) // 2
            base = _oracle_times(oracle, kernel)
            saved = {key: kernel.meta[key] for key in flipped
                     if key in kernel.meta}
            kernel.meta.update(flipped)
            try:
                changed = _oracle_times(oracle, kernel)
                for cfg in space[half:]:
                    assert sim.kernel_time(kernel, cfg) == changed[cfg]
            finally:
                for key in flipped:
                    kernel.meta.pop(key)
                kernel.meta.update(saved)
            for cfg in space:
                assert sim.kernel_time(kernel, cfg) == base[cfg]
            assert any(changed[cfg] != base[cfg] for cfg in space)

    def test_a_config_outside_the_space(self, campaigns, broadcasts):
        """Priced mid-campaign by the scalar formula; the campaign goes
        on answering from its vector."""
        gpu, kernels = campaigns
        sim, oracle = DeviceSimulator(gpu), OracleSimulator(gpu)
        for kernel in kernels:
            space = kernel.search_space
            first = space[0]
            outside = ScheduleConfig(
                tuple((dim, 3 * b) for dim, b in first.block), first.tile)
            assert outside not in space
            want = _oracle_times(oracle, kernel)
            for i, cfg in enumerate(space):
                if i == 1:
                    assert sim.kernel_time(kernel, outside) == \
                        oracle.kernel_cost(kernel, outside)[0].time_s
                assert sim.kernel_time(kernel, cfg) == want[cfg]
        assert len(broadcasts) == len(kernels)

    def test_sweep_configs_is_one_broadcast(self, campaigns, broadcasts):
        gpu, kernels = campaigns
        sim, oracle = SweepSimulator(gpu), OracleSimulator(gpu)
        for kernel in kernels[::10]:
            want = _oracle_times(oracle, kernel)
            assert [t for _cfg, t in sim.sweep_configs(kernel)] \
                == sorted(want.values())
        assert len(broadcasts) == len(kernels[::10])

    def test_a_kernel_timed_once_pays_for_no_broadcast(self, campaigns,
                                                       broadcasts):
        """A TuneDB replay's confirmation or a single-op fallback times a
        kernel once: one configuration priced, no vector."""
        gpu, kernels = campaigns
        sim = DeviceSimulator(gpu)
        for kernel in kernels:
            sim.kernel_time(kernel, kernel.search_space[-1])
        assert broadcasts == [] and sim._last_times is None
