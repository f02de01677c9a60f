"""Auto-tuner: configuration search with the early-quit rule (section 6.5).

SpaceFusion evaluates every configuration in the (deliberately small)
search space by timing test runs — the median of 100 runs after 20 warm-up
runs — and abandons a *losing* configuration once its accumulated test
time exceeds a proportion alpha (0.25 in the paper) of the current best
configuration's total test time.  A configuration that is beating the
incumbent is never cut short — the budget exists to stop spending runs on
losers — so the eventual winner always completed (and was billed for) its
full campaign.  An abandoned configuration is out of the running: it never
finished its measurement campaign, so it cannot be selected as the winner,
only billed for the test runs it did consume.

Here the per-run time comes from the device cost model instead of silicon,
and the tuner *accounts* the wall-clock the paper's procedure would have
spent (warm-up plus measured runs, with early quits shortening bad
configurations).  That accounting is what regenerates the compilation-time
tables (Tables 4 and 5).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from ..resilience import faults as _faults
from .schedule import KernelSchedule, ScheduleConfig

#: Paper's tuning procedure constants.
WARMUP_RUNS = 20
MEASURE_RUNS = 100
DEFAULT_ALPHA = 0.25

#: Failpoint at the head of every tuning campaign: a per-candidate
#: compile/measure failure in the real system aborts the kernel's
#: campaign, which the serving cache's retry policy then absorbs.
FP_TUNE = _faults.register("compile.autotune")


@dataclass
class TuneResult:
    """Outcome of tuning one kernel."""

    kernel: KernelSchedule
    best_config: ScheduleConfig | None
    best_time: float
    configs_evaluated: int
    configs_quit_early: int
    #: Simulated wall-clock the measurement campaign would take (seconds).
    tuning_wall_time: float


def config_sort_key(cfg: ScheduleConfig | None) -> tuple:
    """Stable, order-independent identity of one configuration.

    Used to break *exact* timing ties deterministically: when two
    configurations measure identical, the winner is the one with the
    smaller key, no matter which was evaluated first.  Parallel
    compilation, any order of the search space, and TuneDB replay
    therefore all crown the same configuration.  ``None`` sorts last.
    """
    if cfg is None:
        return (1, (), -2)
    return (0, cfg.block, -1 if cfg.tile is None else cfg.tile)


def evaluate_search_space(
        kernel: KernelSchedule,
        timing_fn: Callable[[KernelSchedule, ScheduleConfig], float],
        alpha: float = DEFAULT_ALPHA,
        warmup_runs: int = WARMUP_RUNS,
        measure_runs: int = MEASURE_RUNS) -> TuneResult:
    """Run the tuning campaign over ``kernel.search_space`` without
    mutating the kernel.

    Pure with respect to the kernel, so concurrent callers can evaluate
    kernels that other threads hold references to; callers then commit
    the choice with :func:`apply_tune_result`.

    Configurations are evaluated in search-space order.  The chosen
    winner does not depend on that order: a configuration strictly
    beating the incumbent always completes its full campaign, and exact
    ties resolve by :func:`config_sort_key`, so the winner is the
    lexicographic minimum of ``(time, key)`` under any order.  Only the
    accounted wall-clock depends on the order.
    """
    _faults.fire(FP_TUNE)
    best_cfg: ScheduleConfig | None = None
    best_time = float("inf")
    wall = 0.0
    quit_early = 0
    space = kernel.search_space

    for cfg in space:
        t = timing_fn(kernel, cfg)
        abandoned = False
        wins_tie = (t == best_time
                    and config_sort_key(cfg) < config_sort_key(best_cfg))
        if best_cfg is None or t < best_time or wins_tie:
            # A configuration on track to beat the incumbent is never cut
            # short: the early-quit rule exists to stop wasting test runs
            # on losers, and a winner must complete (and be billed for)
            # its full measurement campaign.  An exact tie counts as
            # "on track" only for the configuration with the smaller
            # stable key, keeping the winner order-independent.
            runs = warmup_runs + measure_runs
        else:
            # Early quit: stop measuring once accumulated test time passes
            # alpha times the best config's total test time.
            budget = alpha * (warmup_runs + measure_runs) * best_time
            if t * measure_runs > budget:
                allowed = max(1, int(budget / t))
                runs = min(warmup_runs + measure_runs, allowed)
                abandoned = runs < warmup_runs + measure_runs
                if abandoned:
                    quit_early += 1
            else:
                runs = warmup_runs + measure_runs
        wall += runs * t
        # An abandoned configuration never had its full measurement
        # campaign, so per section 6.5 it cannot become the winner — it
        # only contributes its truncated test runs to the wall-clock.
        if not abandoned and (t < best_time or wins_tie):
            best_time = t
            best_cfg = cfg

    return TuneResult(
        kernel=kernel,
        best_config=best_cfg,
        best_time=best_time,
        configs_evaluated=len(space),
        configs_quit_early=quit_early,
        tuning_wall_time=wall,
    )


def apply_tune_result(result: TuneResult) -> KernelSchedule:
    """Commit a tuning outcome: fix the kernel's chosen configuration."""
    result.kernel.config = result.best_config
    return result.kernel


def tune_kernel(kernel: KernelSchedule,
                timing_fn: Callable[[KernelSchedule, ScheduleConfig], float],
                alpha: float = DEFAULT_ALPHA,
                warmup_runs: int = WARMUP_RUNS,
                measure_runs: int = MEASURE_RUNS) -> TuneResult:
    """Search the kernel's config space and fix its best configuration."""
    result = evaluate_search_space(kernel, timing_fn, alpha=alpha,
                                   warmup_runs=warmup_runs,
                                   measure_runs=measure_runs)
    apply_tune_result(result)
    return result


def pick_best(results: list[TuneResult]) -> TuneResult:
    """Choose the fastest tuned candidate among scheduled variants.

    Exact ``best_time`` ties resolve by the stable config key (then the
    kernel name), never by list position: the parallel compilation merge
    and a TuneDB replay then pick identical winners regardless of the
    order tuning results arrive in.
    """
    if not results:
        raise ValueError("no tuning results to choose from")
    return min(results, key=lambda r: (r.best_time,
                                       config_sort_key(r.best_config),
                                       r.kernel.name))


class DefaultTuner:
    """The paper's tuning procedure as a pluggable policy object.

    :class:`~repro.core.compiler.SpaceFusionCompiler` routes every
    campaign through a tuner with this interface; the TuneDB-backed
    :class:`repro.tune.GuidedTuner` replays database hits and runs this
    same campaign on a miss, so the winner is unchanged.
    """

    def tune(self, kernel: KernelSchedule,
             timing_fn: Callable[[KernelSchedule, ScheduleConfig], float],
             alpha: float = DEFAULT_ALPHA) -> TuneResult:
        return tune_kernel(kernel, timing_fn, alpha=alpha)
