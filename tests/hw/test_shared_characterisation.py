"""A stored schedule is characterised once per process.

The kernels of a shared, read-only schedule
(:func:`repro.core.serialize.shared_schedule`) keep their
``KernelTrafficPlan``, its ``BlockFootprint`` and each GPU's terms for as
long as the schedule lives, so every later simulator reuses them; a kernel
of a compile in progress keeps nothing.  A model entry whose bytes did not
change is not parsed again while its schedules are shared.  Totals stay
bitwise those of a freshly decoded copy.
"""

import copy
import dataclasses
import gc
import json
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
        warm = _read(bert, tmp_path)
        simulate_model(warm, AMPERE)
        kernel = _kernels(warm)[0]
        assert kernel.characterised
        for other in (copy.copy(kernel), copy.deepcopy(kernel),
                      dataclasses.replace(kernel)):
            assert other.characterised is None


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
    copy of it costs, on the GPU it was tuned for and on another, both
    when a simulator builds the characterisation and when one reuses it."""
    programs, db = zoo_db
    model = _read(programs[index], db)
    for sub in model.subprograms:
        fresh = schedule_from_json(schedule_to_json(sub.schedule))
        for gpu in (AMPERE, VOLTA):
            want = DeviceSimulator(gpu).program_cost(fresh)
            for _ in range(2):
                got = DeviceSimulator(gpu).program_cost(sub.schedule)
                assert got == want, (programs[index].name, gpu.name)
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
