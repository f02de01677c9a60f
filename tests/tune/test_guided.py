"""GuidedTuner policy: replay, invariance, accounting."""

import random

import pytest

from repro.core.autotuner import (
    DefaultTuner,
    config_sort_key,
    evaluate_search_space,
)
from repro.hw import AMPERE
from repro.serve.metrics import ServeMetrics
from repro.tune import GuidedTuner, TuneDB, gpu_fingerprint

from .conftest import make_kernel

GPU_KEY = gpu_fingerprint(AMPERE)


def block_timing(kernel, cfg):
    """Deterministic synthetic cost: best at block=24, unique winner."""
    return 1.0 + abs(cfg.block_of("m") - 24) / 8.0


class CountingTimer:
    def __init__(self, fn=block_timing):
        self.fn = fn
        self.calls = 0

    def __call__(self, kernel, cfg):
        self.calls += 1
        return self.fn(kernel, cfg)


class TestReplay:
    def test_exact_hit_costs_one_timing_call(self, small_mha):
        db = TuneDB()
        tuner = GuidedTuner(db, GPU_KEY)
        cold = tuner.tune(make_kernel(small_mha, 6), block_timing)

        timer = CountingTimer()
        warm_kernel = make_kernel(small_mha, 6)
        warm = tuner.tune(warm_kernel, timer)
        assert timer.calls == 1
        assert warm.best_config == cold.best_config
        assert warm.configs_evaluated == 1
        assert warm.tuning_wall_time < cold.tuning_wall_time
        assert warm_kernel.config == cold.best_config  # committed

    def test_replay_matches_default_tuner_winner(self, small_mha):
        db = TuneDB()
        tuner = GuidedTuner(db, GPU_KEY)
        default = DefaultTuner().tune(make_kernel(small_mha, 6),
                                      block_timing)
        tuner.tune(make_kernel(small_mha, 6), block_timing)
        replay = tuner.tune(make_kernel(small_mha, 6), block_timing)
        assert replay.best_config == default.best_config

    def test_stale_entry_falls_through_to_full_campaign(self, small_mha):
        metrics = ServeMetrics()
        db = TuneDB()
        tuner = GuidedTuner(db, GPU_KEY, metrics=metrics)
        tuner.tune(make_kernel(small_mha, 6), block_timing)

        # A changed cost model: confirmation disagrees far beyond rtol.
        timer = CountingTimer(lambda k, c: block_timing(k, c) * 10.0)
        res = tuner.tune(make_kernel(small_mha, 6), timer)
        assert metrics.get("tunedb.stale") == 1
        assert res.configs_evaluated == 6  # full campaign re-ran
        assert timer.calls > 1

    def test_trivial_space_skips_database(self, small_mha):
        db = TuneDB()
        tuner = GuidedTuner(db, GPU_KEY)
        res = tuner.tune(make_kernel(small_mha, 1), block_timing)
        assert res.best_config is not None
        assert db.entries() == []  # nothing stored, nothing looked up


class TestWinnerInvariance:
    def test_any_candidate_order_same_winner(self, small_mha):
        """The §6.5 winner must be the lexicographic (time, key) minimum
        under any order of the search space — including with exact
        timing ties."""
        kernel = make_kernel(small_mha, 8)

        def tie_timing(k, cfg):  # three-way exact tie at the optimum
            return max(1.0, abs(cfg.block_of("m") - 24) / 16.0)

        reference = evaluate_search_space(kernel, tie_timing)
        rng = random.Random(7)
        space = list(kernel.search_space)
        for _ in range(10):
            kernel.search_space = rng.sample(space, len(space))
            res = evaluate_search_space(kernel, tie_timing)
            assert res.best_config == reference.best_config
            assert res.best_time == reference.best_time

    def test_guided_tuner_matches_default_on_cold_runs(self, small_mha):
        for n in (2, 5, 8):
            default = DefaultTuner().tune(make_kernel(small_mha, n),
                                          block_timing)
            guided = GuidedTuner(TuneDB(), GPU_KEY).tune(
                make_kernel(small_mha, n), block_timing)
            assert guided.best_config == default.best_config


class TestAccounting:
    def test_hit_and_saved_gauge(self, small_mha):
        metrics = ServeMetrics()
        db = TuneDB()
        tuner = GuidedTuner(db, GPU_KEY, metrics=metrics)
        cold = tuner.tune(make_kernel(small_mha, 6), block_timing)
        warm = tuner.tune(make_kernel(small_mha, 6), block_timing)
        assert metrics.get("tunedb.hits") == 1
        assert metrics.get("tunedb.misses") == 1
        saved = metrics.get_gauge("tunedb.wall_saved_s")
        assert saved == pytest.approx(
            cold.tuning_wall_time - warm.tuning_wall_time)

    def test_counters_render_and_scrape(self, small_mha):
        metrics = ServeMetrics()
        tuner = GuidedTuner(TuneDB(), GPU_KEY, metrics=metrics)
        tuner.tune(make_kernel(small_mha, 6), block_timing)
        tuner.tune(make_kernel(small_mha, 6), block_timing)
        report = metrics.render_report()
        assert "tunedb.hits" in report and "tunedb.misses" in report
        prom = metrics.to_prometheus()
        assert "repro_tunedb_hits 1" in prom
        assert "repro_tunedb_wall_saved_s" in prom


class TestModelLevelAmortization:
    def test_warm_db_amortizes_and_preserves_configs(self, tmp_path):
        """BERT compiled with no database, a cold one and a warm one
        (a *new* TuneDB over the same directory: an empty LRU forces the
        disk tier, the restart / sibling-worker case).  The database buys
        tuning wall-clock, never schedule quality: every chosen config is
        identical, the warm recompile cuts the simulated tuning wall
        >= 5x and a cold database costs no more than plain enumeration."""
        from repro.models.zoo import build_model
        from repro.pipeline import compile_model_for

        def chosen(model):
            return [(k.name, k.config and (k.config.block, k.config.tile))
                    for sub in model.subprograms
                    for k in sub.schedule.kernels]

        program = build_model("bert", batch=1, seq=64)
        metrics = ServeMetrics()
        baseline = compile_model_for(program, AMPERE)
        cold, warm = (
            compile_model_for(program, AMPERE, tune_metrics=metrics,
                              tune_db=TuneDB(str(tmp_path / "db")))
            for _ in range(2))
        assert chosen(cold) == chosen(warm) == chosen(baseline)
        wall = baseline.stats.tuning_wall_time
        assert wall / warm.stats.tuning_wall_time >= 5.0
        assert cold.stats.tuning_wall_time <= wall
        assert metrics.get("tunedb.hits") > 0
        assert metrics.get_gauge("tunedb.wall_saved_s") > 0.0
