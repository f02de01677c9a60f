"""Whole-model entries next to a TuneDB: a warm model compile is one store
read, confirmed by one timing per tunable kernel."""

import dataclasses
import json
import multiprocessing

import pytest

from repro.core.compiler import FusionOptions
from repro.core.serialize import (cache_key, graph_from_dict, graph_to_dict,
                                  schedule_to_json)
from repro.hw import AMPERE, VOLTA
from repro.ir.program import Subprogram, TensorProgram
from repro.models import layernorm_graph
from repro.models.zoo import build_model
from repro.obs import Tracer, use_tracer
from repro.pipeline import compile_model_for, simulate_model
from repro.serve.metrics import ServeMetrics
from repro.tune import TuneDB, gpu_fingerprint
from repro.tune.models import model_key

#: The benchmark spine's model zoo (batch 1).
ZOO = [(name, seq) for name in ("bert", "albert", "gpt2", "t5", "llama2")
       for seq in (128, 512)] + [("vit", None)]


def _program(name, seq):
    return build_model(name, 1) if seq is None else build_model(name, 1,
                                                                seq=seq)


def _jsons(model):
    return [schedule_to_json(sub.schedule) for sub in model.subprograms]


def _configs(model):
    return [(k.name, k.config and (k.config.block, k.config.tile))
            for sub in model.subprograms for k in sub.schedule.kernels]


def _compile(program, db_dir, gpu=AMPERE, options=None):
    metrics = ServeMetrics()
    model = compile_model_for(program, gpu, options, tune_db=TuneDB(db_dir),
                              tune_metrics=metrics)
    return model, metrics


def _model_files(db_dir):
    return sorted((db_dir / "models").glob("*.json"))


@pytest.fixture(scope="module")
def bert():
    return build_model("bert", 1, seq=64)


class TestWarmIsTheColdCompile:
    @pytest.mark.parametrize("name,seq", ZOO)
    def test_zoo_warm_schedules_and_totals_equal_cold(self, name, seq,
                                                      tmp_path):
        program = _program(name, seq)
        cold, _ = _compile(program, tmp_path)
        warm, metrics = _compile(program, tmp_path)
        assert metrics.get("tunedb.misses") == 0
        assert warm.stats.phase_times == {}             # nothing re-ran
        assert _jsons(warm) == _jsons(cold)
        assert simulate_model(warm, AMPERE).time_s == \
            simulate_model(cold, AMPERE).time_s
        assert simulate_model(warm, AMPERE).dram_bytes == \
            simulate_model(cold, AMPERE).dram_bytes

    def test_hit_reports_confirmations_like_a_replay(self, bert, tmp_path):
        cold, _ = _compile(bert, tmp_path)
        warm, metrics = _compile(bert, tmp_path)
        tunable = sum(len(k.search_space) > 1 for sub in warm.subprograms
                      for k in sub.schedule.kernels)
        assert warm.stats.configs_evaluated == tunable > 0
        assert metrics.get("tunedb.hits") == tunable
        assert 0 < warm.stats.tuning_wall_time < cold.stats.tuning_wall_time
        assert metrics.get_gauge("tunedb.wall_saved_s") == pytest.approx(
            cold.stats.tuning_wall_time - warm.stats.tuning_wall_time)

    def test_hits_share_schedules_within_a_process(self, bert, tmp_path):
        _compile(bert, tmp_path)
        first, _ = _compile(bert, tmp_path)
        second, _ = _compile(bert, tmp_path)
        assert all(a.schedule is b.schedule for a, b in
                   zip(first.subprograms, second.subprograms))


class TestKey:
    def _misses(self, tmp_path, program, **kw):
        """True when compiling ``program`` wrote a new model entry."""
        before = len(_model_files(tmp_path))
        _compile(program, tmp_path, **kw)
        return len(_model_files(tmp_path)) > before

    def test_other_gpu_options_names_and_counts_miss(self, bert, tmp_path):
        _compile(bert, tmp_path)
        assert self._misses(tmp_path, bert, gpu=VOLTA)
        assert self._misses(tmp_path, bert,
                            options=FusionOptions(max_configs=8))
        renamed = TensorProgram(bert.name, [
            dataclasses.replace(sub, graph=graph_from_dict(
                {**graph_to_dict(sub.graph), "name": sub.graph.name + "x"}))
            for sub in bert.subprograms])
        assert self._misses(tmp_path, renamed)
        recounted = TensorProgram(bert.name, [
            dataclasses.replace(sub, occurrences=sub.occurrences + 1)
            for sub in bert.subprograms])
        assert self._misses(tmp_path, recounted)


def _rename_tensor(d):
    """``X`` is ``X2`` wherever it appears."""
    def name(t):
        return "X2" if t == "X" else t
    for t in d["tensors"]:
        t["name"] = name(t["name"])
    for op in d["ops"]:
        op["inputs"] = [name(t) for t in op["inputs"]]


def _change_attr(d):
    op = next(op for op in d["ops"] if "scalar" in op["attrs"])
    op["attrs"]["scalar"] *= 2


def _resize_dim(d):
    d["dims"]["n"] *= 2


def _rewire(d):
    """The op reading the gain ``G`` reads the bias ``B`` instead."""
    op = next(op for op in d["ops"] if "G" in op["inputs"])
    op["inputs"] = ["B" if t == "G" else t for t in op["inputs"]]


def _declare_outputs(d):
    d["declared_outputs"] = ["rmean_1", "Y"]


def _reorder_attrs(d):
    for op in d["ops"]:
        op["attrs"] = dict(reversed(op["attrs"].items()))


class TestGraphKey:
    """``model_key`` and ``cache_key`` hash one canonical text of each
    graph: every change to what a stored graph holds misses, and nothing
    else does."""

    @staticmethod
    def _keys(graph, occurrences=1):
        program = TensorProgram("p", [Subprogram(graph, occurrences)])
        return (model_key(program, gpu_fingerprint(AMPERE), None),
                cache_key(graph, gpu_fingerprint(AMPERE)))

    @staticmethod
    def _edited(edit):
        d = graph_to_dict(layernorm_graph(256, 256))
        edit(d)
        return graph_from_dict(d)

    @pytest.mark.parametrize("edit", [
        _rename_tensor, _change_attr, _resize_dim, _rewire,
        _declare_outputs])
    def test_a_changed_graph_misses(self, edit):
        base = self._keys(layernorm_graph(256, 256))
        changed = self._keys(self._edited(edit))
        assert all(a != b for a, b in zip(base, changed))

    def test_a_changed_occurrence_count_misses(self):
        graph = layernorm_graph(256, 256)
        assert self._keys(graph, 2)[0] != self._keys(graph)[0]

    def test_one_program_built_twice_has_one_key(self):
        graph = layernorm_graph(256, 256)
        assert self._keys(layernorm_graph(256, 256)) == self._keys(graph)
        assert self._keys(self._edited(_reorder_attrs)) == self._keys(graph)
        assert any(len(op.attrs) > 1 for op in graph.ops)
        gpu = gpu_fingerprint(AMPERE)
        assert model_key(build_model("t5", 1, seq=64), gpu, None) == \
            model_key(build_model("t5", 1, seq=64), gpu, None)


class TestStaleAndContainment:
    def test_stale_confirmation_recompiles_to_the_cold_configs(
            self, bert, tmp_path):
        cold, _ = _compile(bert, tmp_path)
        (path,) = _model_files(tmp_path)
        payload = json.loads(path.read_text())
        times = next(s["times"] for s in payload["subprograms"]
                     if any(t is not None for t in s["times"]))
        i = next(i for i, t in enumerate(times) if t is not None)
        times[i] *= 3.0
        path.write_text(json.dumps(payload))
        tracer = Tracer()
        with use_tracer(tracer):
            again, metrics = _compile(bert, tmp_path)
        assert metrics.get("tunedb.stale") == 1
        assert "model_store_stale" in {e.name for e in tracer.spans()}
        assert _configs(again) == _configs(cold)
        # The recompile rewrote the entry: the next compile hits.
        _model, metrics = _compile(bert, tmp_path)
        assert metrics.get("tunedb.stale") == 0
        assert metrics.get("tunedb.hits") > 0

    def test_corrupt_entry_is_a_contained_miss(self, bert, tmp_path):
        cold, _ = _compile(bert, tmp_path)
        (path,) = _model_files(tmp_path)
        path.write_text(path.read_text()[:1000])
        model = compile_model_for(bert, AMPERE, tune_db=TuneDB(
            tmp_path, metrics=(metrics := ServeMetrics())))
        assert metrics.get("tunedb.disk_errors") == 1
        assert _configs(model) == _configs(cold)
        assert json.loads(path.read_text())       # rewritten whole

    def test_unwritable_directory_is_contained(self, bert, tmp_path,
                                               monkeypatch):
        """Creating a lock file or an entry fails as in a read-only
        directory (monkeypatched: the suite may run as root)."""
        import repro.store as store

        def refuse(*args, **kw):
            raise PermissionError("read-only directory")

        real_open = store.os.open
        monkeypatch.setattr(store.tempfile, "mkstemp", refuse)
        monkeypatch.setattr(store.os, "open", lambda path, *a, **kw: (
            refuse() if str(tmp_path) in str(path) else real_open(path, *a,
                                                                  **kw)))
        metrics = ServeMetrics()
        model = compile_model_for(bert, AMPERE, tune_metrics=metrics,
                                  tune_db=TuneDB(tmp_path, metrics=metrics))
        assert _configs(model) == _configs(compile_model_for(bert, AMPERE))
        assert metrics.get("tunedb.disk_errors") > 0
        assert _model_files(tmp_path) == []

    def test_events_explain_a_fast_compile(self, bert, tmp_path):
        tracer = Tracer()
        with use_tracer(tracer):
            _compile(bert, tmp_path)
            _compile(bert, tmp_path)
        by_name = {e.name: e for e in tracer.spans()}
        miss, hit = by_name["model_store_miss"], by_name["model_store_hit"]
        assert miss.attrs["key"] == hit.attrs["key"]
        assert hit.attrs["kernels"] == miss.attrs["kernels"] > 0
        assert hit.attrs["wall_saved_s"] > 0 and hit.attrs["confirm_s"] > 0


def _child(db_dir, out_q):
    model, metrics = _compile(build_model("bert", 1, seq=64), db_dir)
    out_q.put((metrics.get("tunedb.misses"), _jsons(model),
               simulate_model(model, AMPERE).time_s))


def test_second_process_runs_no_campaign(tmp_path):
    ctx = multiprocessing.get_context("spawn")
    results = []
    for _ in range(2):
        out_q = ctx.Queue()
        proc = ctx.Process(target=_child, args=(tmp_path, out_q))
        proc.start()
        try:
            results.append(out_q.get(timeout=120.0))
        finally:
            proc.join(timeout=30.0)
        assert not proc.is_alive()
    (misses_a, jsons_a, time_a), (misses_b, jsons_b, time_b) = results
    assert misses_a > 0 and misses_b == 0
    assert jsons_b == jsons_a and time_b == time_a
