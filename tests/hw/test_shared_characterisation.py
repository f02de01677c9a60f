"""A stored schedule is characterised once per process.

The kernels of a shared, read-only schedule
(:func:`repro.core.serialize.shared_schedule`) keep their
``KernelTrafficPlan``, its ``BlockFootprint``, each GPU's terms and each
GPU's time at the kernel's own config for as long as the schedule lives,
and the schedule keeps its program cost per GPU and launch mode, so every
later simulator reuses them; a kernel or schedule of a compile in progress
keeps nothing.  A model entry whose bytes did not change is not parsed
again while its schedules are shared.  Totals, confirmation times and
compile stats stay bitwise those of a freshly decoded copy.
"""

import copy
import dataclasses
import gc
import json
import pickle
import shutil
import sys
import threading
import weakref

import pytest

from repro.core.compiler import CompiledModel
from repro.core.serialize import (
    ScheduleCache,
    compile_cached,
    schedule_from_json,
    schedule_to_json,
)
from repro.hw import AMPERE, VOLTA
from repro.hw import simulator
from repro.hw.simulator import DeviceSimulator
from repro.models import build_model
from repro.pipeline import compile_model_for, simulate_model
from repro.serve.metrics import ServeMetrics
from repro.tune import TuneDB
from repro.tune import models as model_store
from tests.core.test_resources import (
    SUBGRAPHS,
    _candidates,
    count_builders,
    zoo_programs,
)


def _read(program, db_dir, metrics=None):
    return compile_model_for(program, AMPERE, tune_db=TuneDB(db_dir),
                             tune_metrics=metrics)


def _kernels(model, barriers=False):
    return [k for sub in model.subprograms for k in sub.schedule.kernels
            if barriers or not k.meta.get("barrier")]


@pytest.fixture(scope="module")
def bert():
    return build_model("bert", 1, seq=64)


class TestBuiltOncePerProcess:
    def test_a_second_warm_read_builds_no_plan(self, bert, tmp_path,
                                               monkeypatch):
        _read(bert, tmp_path)                   # cold: writes the entry
        plans, footprints = count_builders(monkeypatch)
        first = _read(bert, tmp_path)
        simulate_model(first, AMPERE)
        kernels = _kernels(first)
        # Once per kernel, though the confirmation and program_cost each
        # plan it on a simulator of their own.
        for built in (plans, footprints):
            assert sorted(map(id, built)) == sorted(map(id, kernels))
        del plans[:], footprints[:]
        metrics = ServeMetrics()
        second = _read(bert, tmp_path, metrics)
        assert simulate_model(second, AMPERE) == simulate_model(first, AMPERE)
        assert plans == footprints == []
        # Every confirmation still ran.
        assert metrics.get("tunedb.hits") == sum(
            len(k.search_space) > 1 for k in kernels) > 0

    def test_a_repeat_read_prices_nothing(self, bert, tmp_path, monkeypatch):
        """The first warm read leaves each confirmation time on its kernel
        and each program cost on its schedule: the next read of the same
        bytes evaluates no configuration, yet confirms every kernel."""
        _read(bert, tmp_path)
        first = _read(bert, tmp_path)
        want = simulate_model(first, AMPERE)
        evaluated, real = [], DeviceSimulator._evaluate
        monkeypatch.setattr(
            DeviceSimulator, "_evaluate",
            lambda self, kernel, *a: evaluated.append(kernel) or real(
                self, kernel, *a))
        metrics = ServeMetrics()
        second = _read(bert, tmp_path, metrics)
        assert simulate_model(second, AMPERE) == want
        assert evaluated == []
        assert second.stats == first.stats
        assert metrics.get("tunedb.hits") == \
            first.stats.configs_evaluated > 0

    def test_another_gpu_reuses_the_plan(self, bert, tmp_path, monkeypatch):
        _read(bert, tmp_path)
        model = _read(bert, tmp_path)
        simulate_model(model, AMPERE)
        plans, _ = count_builders(monkeypatch)
        simulate_model(model, VOLTA)
        assert plans == []
        for kernel in _kernels(model):
            terms = kernel.characterised
            assert terms[AMPERE][0] is terms[VOLTA][0]


def test_threads_characterising_one_schedule_agree(bert, tmp_path):
    """Simulators on many threads fill one shared schedule's
    characterisation at once; every total is the fresh copy's."""
    _read(bert, tmp_path)
    model = _read(bert, tmp_path)
    fresh = CompiledModel(model.name, [
        dataclasses.replace(sub, schedule=schedule_from_json(
            schedule_to_json(sub.schedule))) for sub in model.subprograms],
        model.stats)
    want = {gpu.name: simulate_model(fresh, gpu) for gpu in (AMPERE, VOLTA)}
    got, start = [], threading.Barrier(8)

    def work(gpu):
        start.wait(timeout=30)
        for _ in range(5):
            got.append((gpu.name, simulate_model(model, gpu)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(gpu,))
                   for gpu in (AMPERE, VOLTA) * 4]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(got) == 40
    assert all(total == want[name] for name, total in got)


class TestNothingIsPinned:
    def test_a_dropped_schedule_takes_its_characterisation_along(
            self, bert, tmp_path):
        _read(bert, tmp_path)
        model = _read(bert, tmp_path)
        simulate_model(model, AMPERE)
        assert all(k.characterised for k in _kernels(model))
        refs = [weakref.ref(k) for k in _kernels(model, barriers=True)]
        del model
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)

    def test_a_candidate_keeps_nothing(self, small_mha):
        kernel = _candidates(small_mha)[-1]
        sim = DeviceSimulator(AMPERE)
        sim.kernel_time(kernel, kernel.search_space[0])
        assert kernel.characterised is None
        ref = weakref.ref(kernel)
        del kernel, sim
        gc.collect()
        assert ref() is None

    def test_cold_kernels_and_copies_are_not_shared(self, bert, tmp_path):
        cold = _read(bert, tmp_path)
        simulate_model(cold, AMPERE)
        assert all(k.characterised is None for k in _kernels(cold))
        assert all(sub.schedule.costed is None for sub in cold.subprograms)
        assert cold.costed is None
        warm = _read(bert, tmp_path)
        simulate_model(warm, AMPERE)
        schedule = warm.subprograms[0].schedule
        kernel = _kernels(warm)[0]
        assert kernel.characterised and schedule.costed and warm.costed
        assert dataclasses.replace(warm).costed is None
        for other in (copy.copy(kernel), copy.deepcopy(kernel),
                      dataclasses.replace(kernel),
                      pickle.loads(pickle.dumps(kernel))):
            assert other.characterised is None
        for other in (copy.copy(schedule), copy.deepcopy(schedule),
                      dataclasses.replace(schedule),
                      pickle.loads(pickle.dumps(schedule))):
            assert other.costed is None


class TestWhatIsKept:
    def test_a_returned_total_is_the_callers(self, bert, tmp_path):
        _read(bert, tmp_path)
        model = _read(bert, tmp_path)
        schedule = model.subprograms[0].schedule
        sim = DeviceSimulator(AMPERE)
        want = dataclasses.replace(sim.program_cost(schedule))
        for _ in range(2):
            got = sim.program_cost(schedule)
            assert got == want
            got.add(got)
            got.time_s = -1.0
        assert DeviceSimulator(AMPERE).program_cost(schedule) == want
        # The model's totals too, kept for every read of its entry.
        want = dataclasses.replace(simulate_model(model, AMPERE))
        for _ in range(2):
            got = simulate_model(_read(bert, tmp_path), AMPERE)
            assert got == want
            got.add(got)
        assert simulate_model(model, AMPERE) == want

    def test_only_the_kernels_own_config_is_kept(self, bert, tmp_path):
        """A campaign over a shared kernel times every config as a fresh
        copy does and keeps one time per GPU: the kernel's own config's."""
        _read(bert, tmp_path)
        model = _read(bert, tmp_path)
        kernel = next(k for k in _kernels(model) if len(k.search_space) > 1)
        fresh = copy.deepcopy(kernel)
        times = [DeviceSimulator(VOLTA).kernel_time(kernel, cfg)
                 for cfg in kernel.search_space]
        sim = DeviceSimulator(VOLTA)
        times += [sim.kernel_time(kernel, cfg) for cfg in kernel.search_space]
        ref = DeviceSimulator(VOLTA)
        assert times == 2 * [ref.kernel_time(fresh, cfg)
                             for cfg in fresh.search_space]
        assert set(kernel.characterised) == {
            AMPERE, VOLTA, (AMPERE, kernel.config), (VOLTA, kernel.config)}

    def test_a_changed_cost_model_is_seen_by_bytes_read_after_it(
            self, tmp_path, monkeypatch):
        """Confirmation still guards a stored model: a simulator constant
        changed before the process first reads an entry's bytes makes the
        entry stale, and the recompile is the changed model's cold one."""
        program = build_model("gpt2", 1, seq=64)  # read by no other test
        _read(program, tmp_path / "cold")
        # The model entry alone: no kernel entry is replayed.
        shutil.copytree(tmp_path / "cold" / "models",
                        tmp_path / "warm" / "models")
        monkeypatch.setattr(simulator, "_DRAM_EFFICIENCY", 0.5)
        metrics = ServeMetrics()
        model = _read(program, tmp_path / "warm", metrics)
        assert metrics.get("tunedb.stale") == 1
        configs = [[k.config for k in sub.schedule.kernels]
                   for sub in model.subprograms]
        assert configs == [[k.config for k in sub.schedule.kernels] for sub
                           in compile_model_for(program, AMPERE).subprograms]


class TestUnchangedBytesAreNotParsed:
    @pytest.fixture
    def parses(self, monkeypatch):
        calls = []
        loads, decode = json.loads, model_store.schedule_from_dict
        monkeypatch.setattr(
            json, "loads",
            lambda *a, **kw: calls.append("loads") or loads(*a, **kw))
        monkeypatch.setattr(
            model_store, "schedule_from_dict",
            lambda *a: calls.append("schedule_from_dict") or decode(*a))
        return calls

    def test_a_second_read_parses_nothing(self, bert, tmp_path, parses):
        _read(bert, tmp_path)
        first = _read(bert, tmp_path)
        del parses[:]
        second = _read(bert, tmp_path)
        assert parses == []
        for a, b in zip(first.subprograms, second.subprograms):
            assert a.schedule is b.schedule
            assert a is not b and a.stats is not b.stats
            assert (a.stats, a.occurrences) == (b.stats, b.occurrences)
        assert first.stats == second.stats

    def test_rewritten_bytes_are_parsed(self, bert, tmp_path, parses):
        _read(bert, tmp_path)
        first = _read(bert, tmp_path)
        (path,) = (tmp_path / "models").glob("*.json")
        path.write_text(path.read_text() + "\n")   # same entry, new bytes
        del parses[:]
        second = _read(bert, tmp_path)
        assert "loads" in parses and "schedule_from_dict" in parses
        assert all(a.schedule is not b.schedule for a, b in
                   zip(first.subprograms, second.subprograms))
        assert [schedule_to_json(s.schedule) for s in second.subprograms] \
            == [schedule_to_json(s.schedule) for s in first.subprograms]


@pytest.fixture(scope="module")
def zoo_db(tmp_path_factory):
    db = tmp_path_factory.mktemp("zoo")
    programs = zoo_programs()
    for program in programs:
        _read(program, db)
    return programs, db


@pytest.mark.parametrize("index", range(11))
def test_zoo_totals_equal_a_fresh_decode(zoo_db, index):
    """For each zoo model, every shared schedule costs bitwise what a fresh
    copy of it costs, on the GPU it was tuned for and on another, in both
    launch modes, and its kernels confirm at the fresh copy's times, both
    when a simulator builds what is kept and when one reuses it; a repeat
    read reports the first one's compile stats."""
    programs, db = zoo_db
    model = _read(programs[index], db)
    fresh = CompiledModel(model.name, [
        dataclasses.replace(sub, schedule=schedule_from_json(
            schedule_to_json(sub.schedule))) for sub in model.subprograms],
        model.stats)
    for gpu in (AMPERE, VOLTA):
        want_times = [DeviceSimulator(gpu).kernel_time(k, k.config)
                      for k in _kernels(fresh)]
        for cuda_graphs in (None, True):
            want = simulate_model(fresh, gpu, cuda_graphs)
            for _ in range(2):
                assert simulate_model(model, gpu, cuda_graphs) == want, \
                    (programs[index].name, gpu.name, cuda_graphs)
                assert [DeviceSimulator(gpu).kernel_time(k, k.config)
                        for k in _kernels(model)] == want_times
        for sub, ref in zip(model.subprograms, fresh.subprograms):
            assert DeviceSimulator(gpu).program_cost(sub.schedule) == \
                DeviceSimulator(gpu).program_cost(ref.schedule)
    assert _read(programs[index], db).stats == model.stats
    assert all(k.characterised for k in _kernels(model))


def test_subgraph_schedules_are_shared_through_the_schedule_cache(tmp_path):
    """The seven subgraphs reach the same table through ScheduleCache."""
    for build in SUBGRAPHS.values():
        graph = build()
        cold, _ = compile_cached(graph, AMPERE, ScheduleCache(tmp_path))
        warm, stats = compile_cached(graph, AMPERE, ScheduleCache(tmp_path))
        assert stats is None
        assert DeviceSimulator(AMPERE).program_cost(warm) == \
            DeviceSimulator(AMPERE).program_cost(cold)
        assert all(k.characterised is None for k in cold.kernels)
        assert all(k.characterised for k in warm.kernels
                   if not k.meta.get("barrier"))
