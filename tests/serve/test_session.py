"""Tests for InferenceSession: correctness, concurrency, degradation."""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core.serialize import ScheduleCache, schedule_to_json
from repro.core.verify import audit_program
from repro.hw import AMPERE
from repro.models import mha_graph
from repro.pipeline import compile_for
from repro.resilience import faults
from repro.runtime import PlanCache, ScheduleExecutor, execute_schedule
from repro.runtime.compiled import plan_key
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.tune.fingerprint import gpu_fingerprint
from repro.serve import (
    ENGINE_COMPILED,
    ENGINE_INTERPRETER,
    InferenceSession,
    ServeMetrics,
    TieredScheduleCache,
)
from repro.serve.session import SessionError


class TestFusedServing:
    def test_reply_matches_reference(self, small_ln):
        session = InferenceSession(small_ln, AMPERE)
        feeds = random_feeds(small_ln, seed=3)
        reply = session.execute(feeds)
        assert not reply.degraded and reply.reason is None
        expected = execute_graph_reference(small_ln, feeds)
        for name, arr in expected.items():
            np.testing.assert_allclose(reply.outputs[name], arr, atol=1e-9)

    def test_session_is_ready_after_first_request(self, small_ln):
        session = InferenceSession(small_ln, AMPERE)
        assert session.state == "pending"
        session.execute(random_feeds(small_ln, seed=0))
        assert session.state == "ready"
        assert session.info().kernels >= 1

    def test_concurrent_requests_identical_to_reference(self, small_mlp):
        """Acceptance: >=4 threads, every reply equals the reference."""
        session = InferenceSession(small_mlp, AMPERE)
        seeds = list(range(8))
        expected = {
            s: execute_graph_reference(small_mlp,
                                       random_feeds(small_mlp, seed=s))
            for s in seeds
        }
        errors = []

        def client(seed):
            try:
                reply = session.execute(random_feeds(small_mlp, seed=seed))
                for name, arr in expected[seed].items():
                    np.testing.assert_allclose(reply.outputs[name], arr,
                                               atol=1e-9)
            except Exception as exc:  # noqa: BLE001
                errors.append(exc)

        threads = [threading.Thread(target=client, args=(s,)) for s in seeds]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        info = session.info()
        assert info.requests == len(seeds) and info.degraded_requests == 0

    def test_sessions_share_cache(self, small_ln):
        cache = TieredScheduleCache()
        a = InferenceSession(small_ln, AMPERE, cache=cache, eager=True)
        b = InferenceSession(small_ln, AMPERE, cache=cache, eager=True)
        assert a.schedule is b.schedule       # second session hit the LRU
        assert cache.stats()["compile_misses"] == 1


    def test_an_edited_spec_never_shares_a_presets_schedule(self, tmp_path):
        """Regression: the session keyed the schedule cache by
        ``gpu.name``; a spec edited under the same name was handed the
        preset's schedule from either tier."""
        graph = mha_graph(1, 8, 128, 128, 64)
        small = dataclasses.replace(
            AMPERE, smem_per_block=AMPERE.smem_per_block // 16)
        assert small.name == AMPERE.name
        cache = TieredScheduleCache(disk=ScheduleCache(tmp_path))
        a = InferenceSession(graph, AMPERE, cache=cache, eager=True)
        before = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
        b = InferenceSession(graph, small, cache=cache, eager=True)
        assert a.state == b.state == "ready"
        assert cache.stats()["compile_misses"] == 2
        assert [k.config for k in a.schedule.kernels] \
            != [k.config for k in b.schedule.kernels]
        assert audit_program(b.schedule, small).ok
        after = {p.name: p.read_bytes() for p in tmp_path.glob("*.json")}
        assert len(before) == 1 and len(after) == 2
        assert all(after[name] == data for name, data in before.items())
        # A restart (empty memory tier) restores each spec's own entry.
        restart = TieredScheduleCache(disk=ScheduleCache(tmp_path))
        for gpu, first in ((AMPERE, a), (small, b)):
            again = InferenceSession(graph, gpu, cache=restart, eager=True)
            assert schedule_to_json(again.schedule) \
                == schedule_to_json(first.schedule)
        assert restart.stats()["compile_misses"] == 0


class TestExecutionEngines:
    def test_default_engine_is_compiled(self, small_ln):
        session = InferenceSession(small_ln, AMPERE)
        assert session.engine == ENGINE_COMPILED
        session.execute(random_feeds(small_ln, seed=0))
        assert session.info().engine == ENGINE_COMPILED

    def test_interpreter_engine_bitwise_matches_compiled(self, small_mha):
        feeds = random_feeds(small_mha, seed=11)
        compiled = InferenceSession(small_mha, AMPERE,
                                    engine=ENGINE_COMPILED)
        interp = InferenceSession(small_mha, AMPERE,
                                  engine=ENGINE_INTERPRETER)
        r_c = compiled.execute(feeds)
        r_i = interp.execute(feeds)
        assert not r_c.degraded and not r_i.degraded
        for name, arr in r_i.outputs.items():
            np.testing.assert_array_equal(r_c.outputs[name], arr)

    def test_unknown_engine_rejected(self, small_ln):
        with pytest.raises(SessionError, match="engine"):
            InferenceSession(small_ln, AMPERE, engine="jit")

    def test_sessions_share_plan_cache(self, small_ln):
        from repro.runtime import PlanCache

        plans = PlanCache()
        a = InferenceSession(small_ln, AMPERE, plan_cache=plans, eager=True)
        b = InferenceSession(small_ln, AMPERE, plan_cache=plans, eager=True)
        feeds = random_feeds(small_ln, seed=1)
        a.execute(feeds)
        b.execute(feeds)
        stats = plans.stats()
        assert stats["misses"] == 1 and stats["hits"] >= 1
        assert a.program is b.program


class TestTheHostPlan:
    """A session keeps the cached GPU schedule and serves a copy of it at
    host configs (docs/runtime.md, "The plan the host runs")."""

    def test_the_cached_schedule_is_untouched(self, small_mha):
        cache = TieredScheduleCache()
        session = InferenceSession(small_mha, AMPERE, cache=cache,
                                   eager=True)
        cached = cache.get_or_compile(
            small_mha, gpu_fingerprint(AMPERE),
            lambda: pytest.fail("the cache compiled again"))
        assert session.schedule is cached
        fresh, _ = compile_for(small_mha, AMPERE)
        configs = [k.config for k in cached.kernels]
        assert configs == [k.config for k in fresh.kernels]
        assert [k.config for k in session.host_schedule.kernels] != configs
        assert session.program.key == plan_key(session.host_schedule)
        [row] = session.info().meta["host_plan"]
        assert row["gpu"] == configs[0].describe()
        assert row["host_counts"] < row["gpu_counts"]

    def test_quarantine_relowers_and_reanswers_on_the_host_plan(
            self, small_mha, monkeypatch):
        plans = PlanCache()
        session = InferenceSession(small_mha, AMPERE, plan_cache=plans,
                                   eager=True)
        interpreted = []
        real = ScheduleExecutor.execute_program
        monkeypatch.setattr(
            ScheduleExecutor, "execute_program",
            lambda self, program, feeds: interpreted.append(program)
            or real(self, program, feeds))
        feeds = random_feeds(small_mha, seed=2)
        with faults.registry().armed({"runtime.poison": "fail_n_times(1)"}):
            reply = session.execute(feeds)
        assert reply.reason == "plan_quarantined"
        assert interpreted == [session.host_schedule]
        assert plans.stats()["quarantined"] == 1
        assert session.program.key == plan_key(session.host_schedule)
        expected = execute_schedule(session.host_schedule, feeds)
        for name in small_mha.output_tensors:
            np.testing.assert_array_equal(reply.outputs[name],
                                          expected[name])
            np.testing.assert_array_equal(
                session.execute(feeds).outputs[name], expected[name])


class TestGracefulDegradation:
    def test_compile_failure_falls_back_to_reference(self, small_ln):
        def broken_compile():
            raise RuntimeError("injected compiler crash")

        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   compile_fn=broken_compile)
        feeds = random_feeds(small_ln, seed=5)
        reply = session.execute(feeds)
        assert reply.degraded and reply.reason == "compile_failed"
        assert session.state == "failed"
        assert "injected compiler crash" in session.compile_error
        expected = execute_graph_reference(small_ln, feeds)
        for name, arr in expected.items():
            np.testing.assert_allclose(reply.outputs[name], arr)
        assert metrics.get("fallbacks") == 1
        assert metrics.get("fallbacks.compile_failed") == 1
        assert metrics.get("compile_failures") == 1

    def test_compile_timeout_degrades_then_recovers(self, small_ln):
        from repro.pipeline import compile_for

        release = threading.Event()

        def slow_compile():
            release.wait(10.0)
            schedule, _ = compile_for(small_ln, AMPERE)
            return schedule

        session = InferenceSession(small_ln, AMPERE, compile_fn=slow_compile)
        feeds = random_feeds(small_ln, seed=7)
        reply = session.execute(feeds, timeout=0.05)
        assert reply.degraded and reply.reason == "compile_timeout"
        expected = execute_graph_reference(small_ln, feeds)
        for name, arr in expected.items():
            np.testing.assert_allclose(reply.outputs[name], arr)

        release.set()                          # let compilation finish
        assert session.ensure_compiled(timeout=10.0)
        reply2 = session.execute(feeds)
        assert not reply2.degraded
        for name, arr in expected.items():
            np.testing.assert_allclose(reply2.outputs[name], arr, atol=1e-9)


class TestTuneDBIntegration:
    def test_sessions_share_tuning_campaigns(self, small_mha, tmp_path):
        """Second session over the same workload replays every kernel's
        stored winner: zero cold campaigns, identical schedule."""
        from repro.tune import TuneDB

        m1, m2 = ServeMetrics(), ServeMetrics()
        db_dir = tmp_path / "tunedb"
        s1 = InferenceSession(small_mha, AMPERE, metrics=m1,
                              tune_db=TuneDB(db_dir))
        s1.execute(random_feeds(small_mha, seed=0))
        assert m1.get("tunedb.misses") > 0

        # Fresh session, fresh cache, fresh TuneDB instance on the same
        # directory — only the disk tier carries over.
        s2 = InferenceSession(small_mha, AMPERE, metrics=m2,
                              cache=TieredScheduleCache(metrics=m2),
                              tune_db=TuneDB(db_dir))
        reply = s2.execute(random_feeds(small_mha, seed=1))
        assert not reply.degraded
        assert m2.get("tunedb.hits") > 0
        assert m2.get("tunedb.misses") == 0
        assert m2.get_gauge("tuning.wall_time_s") < \
            m1.get_gauge("tuning.wall_time_s")
        # Same chosen configs = same compiled schedule.
        assert [k.config for k in s2.schedule.kernels] == \
            [k.config for k in s1.schedule.kernels]
        assert s2.info().meta["tunedb"]["disk_entries"] > 0

    def test_tuning_counters_scrapeable(self, small_ln, tmp_path):
        """Satellite: compile-path tuning counters reach to_prometheus."""
        from repro.tune import TuneDB

        metrics = ServeMetrics()
        session = InferenceSession(small_ln, AMPERE, metrics=metrics,
                                   tune_db=TuneDB(tmp_path / "db"))
        session.execute(random_feeds(small_ln, seed=0))
        prom = metrics.to_prometheus()
        assert "repro_tuning_wall_time_s" in prom
        assert "repro_tuning_configs_evaluated" in prom
        assert "repro_tunedb_misses" in prom
