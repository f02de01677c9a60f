"""TuneDB-backed tuning policy: replay a stored winner, else run the
paper's campaign once and store its winner.

Drops into :class:`~repro.core.compiler.SpaceFusionCompiler` in place of
:class:`~repro.core.autotuner.DefaultTuner`:

* **Exact replay.**  A fingerprint hit skips the campaign: the stored
  winner is re-timed once as a confirmation; if it agrees with the
  stored time (within ``CONFIRM_RTOL``) the kernel is done at the cost
  of a single run instead of a full 120-run-per-config campaign.  A
  disagreeing confirmation (changed cost model, corrupted entry)
  invalidates the entry and falls through to a full campaign.
* **Cold campaign.**  A miss runs
  :func:`~repro.core.autotuner.tune_kernel` over the kernel's
  search space in its enumeration order — the §6.5 procedure unchanged —
  and stores the winner.

The chosen winner is the one :class:`~repro.core.autotuner.DefaultTuner`
picks: replay only returns configurations validated against the live
timing function.  Only the simulated tuning wall-clock — Tables 4/5 —
shrinks.

Cold fingerprints single-flight across processes through
:func:`repro.store.single_flight` on the database's disk tier: a worker
that waited re-checks the database before starting its own campaign, and
a lock timeout degrades to a (safe) duplicate campaign.
"""

from __future__ import annotations

from typing import Callable

from ..core.autotuner import (
    DEFAULT_ALPHA,
    TuneResult,
    apply_tune_result,
    tune_kernel,
)
from ..core.schedule import KernelSchedule, ScheduleConfig
from ..core.serialize import _config_from_dict, _config_to_dict
from ..obs import event as obs_event
from ..obs import span as obs_span
from ..store import single_flight
from .db import TuneDB, TuneEntry
from .fingerprint import kernel_fingerprint

#: Relative tolerance between a replay's confirmation timing and the
#: stored time before the entry is deemed stale (kernel and model
#: entries alike).
CONFIRM_RTOL = 0.25


class GuidedTuner:
    """TuneDB-backed tuning policy (see module docstring).

    Args:
        db: the shared tuning database.
        gpu_key: :func:`~repro.tune.fingerprint.gpu_fingerprint` of the
            device the timing function models — baked into every
            fingerprint so entries never cross device models.
        metrics: optional :class:`~repro.serve.metrics.ServeMetrics`;
            receives ``tunedb.hits/misses`` counters, ``tunedb.stale``
            confirmations, and the ``tunedb.wall_saved_s`` gauge.
        lock_timeout_s: cross-process single-flight wait before running
            a (safe) duplicate campaign.
    """

    def __init__(self, db: TuneDB, gpu_key: str, metrics=None,
                 lock_timeout_s: float = 10.0) -> None:
        self.db = db
        self.gpu_key = gpu_key
        self.metrics = metrics
        self.lock_timeout_s = lock_timeout_s

    # -- metrics helpers ----------------------------------------------

    def _inc(self, name: str, n: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.inc(name, n)

    def _saved(self, seconds: float) -> None:
        if self.metrics is not None and seconds > 0:
            self.metrics.add_gauge("tunedb.wall_saved_s", seconds)

    # -- tuner interface ----------------------------------------------

    def tune(self, kernel: KernelSchedule,
             timing_fn: Callable[[KernelSchedule, ScheduleConfig], float],
             alpha: float = DEFAULT_ALPHA) -> TuneResult:
        space = kernel.search_space
        if len(space) <= 1:
            # Nothing to amortize: a trivial space has no campaign to
            # skip and its one timing call costs what a replay would.
            return tune_kernel(kernel, timing_fn, alpha=alpha)

        fp = kernel_fingerprint(kernel, self.gpu_key)
        with obs_span("guided_tune", category="tune", kernel=kernel.name,
                      fingerprint=fp, space=len(space)):
            def replay() -> TuneResult | None:
                entry = self.db.get(fp)
                if entry is None:
                    return None
                return self._try_replay(kernel, entry, timing_fn)

            result = replay()
            if result is not None:
                return result
            # After queueing behind another process's campaign,
            # ``replay`` its winner instead of duplicating the work.
            return single_flight(
                self.db.store, fp, self.lock_timeout_s, replay,
                lambda: self._cold_tune(kernel, timing_fn, fp, alpha))

    # -- replay --------------------------------------------------------

    def _try_replay(self, kernel: KernelSchedule, entry: TuneEntry,
                    timing_fn) -> TuneResult | None:
        """One-run confirmation of a stored winner; None → fall through
        to a full campaign (the entry has been invalidated)."""
        if entry.config is None:
            self.db.invalidate(entry.fingerprint)
            return None
        try:
            cfg = _config_from_dict(entry.config)
        except Exception:
            self.db.invalidate(entry.fingerprint)
            return None
        if cfg not in kernel.search_space:
            # Should be impossible (the space is part of the
            # fingerprint) — contain it as a stale entry regardless.
            self.db.invalidate(entry.fingerprint)
            return None
        t = timing_fn(kernel, cfg)
        if entry.best_time > 0 and abs(t - entry.best_time) > \
                CONFIRM_RTOL * entry.best_time:
            self._inc("tunedb.stale")
            obs_event("tunedb_stale", category="tune",
                      kernel=kernel.name, fingerprint=entry.fingerprint,
                      stored_time=entry.best_time, confirm_time=t)
            self.db.invalidate(entry.fingerprint)
            return None
        self._inc("tunedb.hits")
        obs_event("tunedb_replay", category="tune", kernel=kernel.name,
                  fingerprint=entry.fingerprint,
                  wall_saved_s=max(entry.tuning_wall_time - t, 0.0))
        self._saved(entry.tuning_wall_time - t)
        res = TuneResult(
            kernel=kernel,
            best_config=cfg,
            best_time=t,
            configs_evaluated=1,
            configs_quit_early=0,
            tuning_wall_time=t,
        )
        apply_tune_result(res)
        return res

    # -- cold path -----------------------------------------------------

    def _cold_tune(self, kernel: KernelSchedule, timing_fn, fp: str,
                   alpha: float) -> TuneResult:
        self._inc("tunedb.misses")
        with obs_span("tune_campaign", category="tune",
                      kernel=kernel.name, fingerprint=fp):
            res = tune_kernel(kernel, timing_fn, alpha=alpha)
        self.db.put(TuneEntry(
            fingerprint=fp,
            gpu=self.gpu_key,
            kernel_name=kernel.name,
            config=_config_to_dict(res.best_config),
            best_time=res.best_time,
            tuning_wall_time=res.tuning_wall_time,
            configs_evaluated=res.configs_evaluated,
            configs_quit_early=res.configs_quit_early,
        ))
        return res
