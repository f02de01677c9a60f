"""Auto-tuner edge cases: degenerate search spaces and extreme alpha.

Complements test_autotuner_memory.py, which covers the common paths;
here the concern is that TuneResult accounting (configs_quit_early,
tuning_wall_time) stays consistent when the space is empty, a single
point, or when alpha=0 makes the early-quit rule maximally aggressive.
"""

import math

import pytest

from repro.core.autotuner import (
    MEASURE_RUNS,
    WARMUP_RUNS,
    apply_tune_result,
    config_sort_key,
    evaluate_search_space,
    pick_best,
    tune_kernel,
)
from repro.core.builder import build_smg
from repro.core.schedule import KernelSchedule, ScheduleConfig
from repro.core.temporal_slicer import plan_temporal_slice


def _kernel(small_mha, n):
    smg = build_smg(small_mha)
    plan = plan_temporal_slice(smg, "l")
    k = KernelSchedule("k", smg, ("m",), plan)
    k.search_space = [ScheduleConfig(block=(("m", 8 * (i + 1)),), tile=16)
                      for i in range(n)]
    return k


class TestEmptySpace:
    def test_empty_space_accounting(self, small_mha):
        kernel = _kernel(small_mha, 0)
        res = tune_kernel(kernel, lambda k, c: 1.0)
        assert res.best_config is None
        assert math.isinf(res.best_time)
        assert res.configs_evaluated == 0
        assert res.configs_quit_early == 0
        assert res.tuning_wall_time == 0.0
        assert kernel.config is None


class TestSingleConfig:
    def test_single_config_never_quits_early(self, small_mha):
        kernel = _kernel(small_mha, 1)
        res = tune_kernel(kernel, lambda k, c: 0.25)
        assert res.best_config == kernel.search_space[0]
        assert kernel.config == res.best_config
        assert res.configs_evaluated == 1
        assert res.configs_quit_early == 0
        # The lone config pays the full campaign: warmup + measured runs.
        assert res.tuning_wall_time == \
            pytest.approx((WARMUP_RUNS + MEASURE_RUNS) * 0.25)


class TestAlphaZero:
    def test_alpha_zero_quits_every_later_config(self, small_mha):
        kernel = _kernel(small_mha, 5)
        times = {cfg: 1.0 + i
                 for i, cfg in enumerate(kernel.search_space)}
        res = tune_kernel(kernel, lambda k, c: times[c], alpha=0.0)
        # First config measured in full, all later configs get the minimum
        # one run before the zero budget cuts them off.
        assert res.configs_evaluated == 5
        assert res.configs_quit_early == 4
        expected_wall = (WARMUP_RUNS + MEASURE_RUNS) * 1.0 + \
            sum(times[c] for c in kernel.search_space[1:])
        assert res.tuning_wall_time == pytest.approx(expected_wall)
        assert res.best_config == kernel.search_space[0]

    def test_alpha_zero_still_finds_later_better_config(self, small_mha):
        """Regression (section 6.5): a config beating the incumbent is
        never cut short — even a zero budget only trims losers.  The old
        rule abandoned the faster config mid-campaign yet still crowned
        it, leaving quit_early and the wall-clock inconsistent with the
        winner having been measured in full.
        """
        kernel = _kernel(small_mha, 3)
        times = dict(zip(kernel.search_space, (2.0, 3.0, 0.5)))
        res = tune_kernel(kernel, lambda k, c: times[c], alpha=0.0)
        assert res.best_config == kernel.search_space[2]
        assert res.best_time == 0.5
        # Only the slower middle config is abandoned (one token run);
        # the winner pays its full campaign.
        assert res.configs_quit_early == 1
        assert res.tuning_wall_time == pytest.approx(
            (WARMUP_RUNS + MEASURE_RUNS) * 2.0 + 1 * 3.0
            + (WARMUP_RUNS + MEASURE_RUNS) * 0.5)


class TestWallTimeConsistency:
    def test_wall_time_equals_runs_times_cost(self, small_mha):
        """Recompute the campaign from the timings it asked for, in the
        order it asked, and match it."""
        kernel = _kernel(small_mha, 6)
        times = {cfg: [1.0, 0.4, 5.0, 0.2, 9.0, 0.1][i]
                 for i, cfg in enumerate(kernel.search_space)}
        alpha = 0.25
        timed = []

        def timing(k, cfg):
            timed.append((cfg, times[cfg]))
            return times[cfg]

        res = tune_kernel(kernel, timing, alpha=alpha)

        wall = 0.0
        best = None
        quit_early = 0
        for cfg, t in timed:
            abandoned = False
            if best is None or t < best:
                # Beating the incumbent: never cut short.
                runs = WARMUP_RUNS + MEASURE_RUNS
            else:
                budget = alpha * (WARMUP_RUNS + MEASURE_RUNS) * best
                if t * MEASURE_RUNS > budget:
                    runs = min(WARMUP_RUNS + MEASURE_RUNS,
                               max(1, int(budget / t)))
                    abandoned = runs < WARMUP_RUNS + MEASURE_RUNS
                    if abandoned:
                        quit_early += 1
                else:
                    runs = WARMUP_RUNS + MEASURE_RUNS
            wall += runs * t
            if not abandoned and (best is None or t < best):
                best = t
        assert res.tuning_wall_time == pytest.approx(wall)
        assert res.configs_quit_early == quit_early
        assert res.best_time == min(times.values())
        # For this walk only the losers (5.0 and 9.0) are cut short; the
        # improving configs 0.4, 0.2, 0.1 each complete a full campaign.
        assert res.configs_quit_early == 2


class TestPureEvaluation:
    def test_evaluate_does_not_mutate_kernel(self, small_mha):
        kernel = _kernel(small_mha, 4)
        assert kernel.config is None
        res = evaluate_search_space(kernel, lambda k, c: 1.0)
        assert kernel.config is None          # untouched by evaluation
        apply_tune_result(res)
        assert kernel.config == res.best_config


class TestDeterministicTieBreak:
    def test_tie_resolves_by_config_key_not_order(self, small_mha):
        """Exact timing ties crown the smallest config_sort_key whichever
        side of the comparison it arrives on — forward and reversed
        evaluation orders must agree."""
        kernel = _kernel(small_mha, 6)
        forward = evaluate_search_space(kernel, lambda k, c: 1.0)
        kernel.search_space = kernel.search_space[::-1]
        reverse = evaluate_search_space(kernel, lambda k, c: 1.0)
        assert forward.best_config == reverse.best_config
        assert forward.best_config == min(
            kernel.search_space, key=config_sort_key)

    def test_tie_winner_bills_full_campaign(self, small_mha):
        """A tie-winning config counts as on-track: it completes (and is
        billed for) the full campaign rather than being abandoned."""
        kernel = _kernel(small_mha, 2)
        # Reversed order: the smaller-key config arrives second, tied.
        kernel.search_space = kernel.search_space[::-1]
        res = evaluate_search_space(kernel, lambda k, c: 2.0)
        assert res.configs_quit_early == 0
        assert res.tuning_wall_time == pytest.approx(
            2 * (WARMUP_RUNS + MEASURE_RUNS) * 2.0)

    def test_pick_best_tie_ignores_result_order(self, small_mha):
        ka = _kernel(small_mha, 2)
        ka.name = "alpha"
        kb = _kernel(small_mha, 3)
        kb.name = "beta"
        a = tune_kernel(ka, lambda k, c: 1.0)
        b = tune_kernel(kb, lambda k, c: 1.0)
        # Fully tied (time and config key): the kernel name breaks the
        # tie, never the list position.
        assert pick_best([a, b]) is a
        assert pick_best([b, a]) is a


class TestCandidatesOverride:
    """The search space's order is the evaluation order."""

    def test_candidates_change_wall_not_winner(self, small_mha):
        """Ordering the eventual winner first lets the budget trim every
        later config; the winner itself is order-independent."""
        kernel = _kernel(small_mha, 6)
        # Worst-first in enumeration order, so plain evaluation never
        # gets to trim anything while best-first trims everything.
        times = {cfg: 6.0 - i
                 for i, cfg in enumerate(kernel.search_space)}
        plain = evaluate_search_space(kernel, lambda k, c: times[c])
        kernel.search_space = sorted(kernel.search_space,
                                     key=lambda c: times[c])
        best_first = evaluate_search_space(kernel, lambda k, c: times[c])
        assert best_first.best_config == plain.best_config
        assert best_first.best_time == plain.best_time
        assert best_first.tuning_wall_time < plain.tuning_wall_time

    def test_candidates_counted_as_evaluated(self, small_mha):
        kernel = _kernel(small_mha, 4)
        kernel.search_space = kernel.search_space[:2]
        res = evaluate_search_space(kernel, lambda k, c: 1.0)
        assert res.configs_evaluated == 2
