"""Feature-guided tuning policy backed by the TuneDB.

Drops into :class:`~repro.core.compiler.SpaceFusionCompiler` in place of
:class:`~repro.core.autotuner.DefaultTuner` and layers three
amortizations over the paper's §6.5 campaign, in order of strength:

1. **Exact replay.**  A fingerprint hit skips the campaign: the stored
   winner is re-timed once as a confirmation; if it agrees with the
   stored time (within ``confirm_rtol``) the kernel is done at the cost
   of a single run instead of a full 120-run-per-config campaign.  A
   disagreeing confirmation (changed cost model, corrupted entry)
   invalidates the entry and falls through to a full campaign.
2. **Guided ordering.**  On a miss, a ridge regression over
   (kernel + config) features — calibrated from the campaign samples the
   database has accumulated — promotes its top-ranked configurations to
   the front of the evaluation order, so the α-early-quit rule abandons
   losers against a strong incumbent from the first comparison.
3. **Neighbor warm start.**  Below the predictor's training threshold,
   the winning config of the nearest already-tuned kernel (by kernel
   feature distance) is promoted instead.

All three preserve the chosen winner bitwise: replay only returns
configurations validated against the live timing function, and ordering
changes cannot change the winner of
:func:`~repro.core.autotuner.evaluate_search_space` (strictly better
configurations always complete their campaign; exact ties resolve by
:func:`~repro.core.autotuner.config_sort_key`).  Only the simulated
tuning wall-clock — Tables 4/5 — shrinks.

Cold fingerprints single-flight across processes through
:func:`repro.store.single_flight` on the database's disk tier: a worker
that waited re-checks the database before starting its own campaign, and
a lock timeout degrades to a (safe) duplicate campaign.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..core.autotuner import (
    DEFAULT_ALPHA,
    TuneResult,
    apply_tune_result,
    evaluate_search_space,
)
from ..core.resources import BlockFootprint, footprint_of
from ..core.schedule import KernelSchedule, ScheduleConfig
from ..core.serialize import _config_from_dict, _config_to_dict
from ..obs import event as obs_event
from ..obs import span as obs_span
from ..store import single_flight
from .db import TuneDB, TuneEntry
from .features import (
    FEATURE_VERSION,
    config_features,
    kernel_features,
)
from .fingerprint import kernel_fingerprint


class RidgePredictor:
    """Ridge regression over schedule features, predicting log-time.

    Deliberately tiny: standardized inputs, closed-form normal
    equations, numpy only.  It does not need to be accurate — it feeds
    an *ordering* whose worst case is the unguided enumeration order —
    it only needs to beat random on which configs are promising.
    """

    def __init__(self, ridge: float = 1e-2, min_samples: int = 32,
                 retrain_every: int = 16) -> None:
        self.ridge = ridge
        self.min_samples = min_samples
        self.retrain_every = retrain_every
        self._w: np.ndarray | None = None
        self._mean: np.ndarray | None = None
        self._std: np.ndarray | None = None
        self._y_mean = 0.0
        self._fitted_on = 0

    @property
    def ready(self) -> bool:
        return self._w is not None

    def should_refit(self, pool_size: int) -> bool:
        if pool_size < self.min_samples:
            return False
        return (not self.ready
                or pool_size - self._fitted_on >= self.retrain_every)

    def fit(self, samples: list[list]) -> bool:
        """Calibrate from ``[[feature_vector, time], ...]``; False if
        below the training threshold or degenerate."""
        rows = [(fv, t) for fv, t in samples if t > 0.0]
        if len(rows) < self.min_samples:
            return False
        X = np.asarray([fv for fv, _t in rows], dtype=float)
        y = np.log(np.asarray([t for _fv, t in rows], dtype=float))
        mean = X.mean(axis=0)
        std = X.std(axis=0)
        std[std < 1e-12] = 1.0
        Xs = (X - mean) / std
        y_mean = float(y.mean())
        yc = y - y_mean
        gram = Xs.T @ Xs + self.ridge * np.eye(Xs.shape[1])
        try:
            w = np.linalg.solve(gram, Xs.T @ yc)
        except np.linalg.LinAlgError:
            return False
        if not np.all(np.isfinite(w)):
            return False
        self._w, self._mean, self._std = w, mean, std
        self._y_mean = y_mean
        self._fitted_on = len(samples)
        return True

    def predict(self, fvecs: list[list[float]]) -> np.ndarray | None:
        """Predicted log-times, or None when uncalibrated."""
        if not self.ready or not fvecs:
            return None
        X = np.asarray(fvecs, dtype=float)
        Xs = (X - self._mean) / self._std
        return Xs @ self._w + self._y_mean


class GuidedTuner:
    """TuneDB-backed tuning policy (see module docstring).

    Args:
        db: the shared tuning database.
        gpu_key: :func:`~repro.tune.fingerprint.gpu_fingerprint` of the
            device the timing function models — baked into every
            fingerprint so entries never cross device models.
        metrics: optional :class:`~repro.serve.metrics.ServeMetrics`;
            receives ``tunedb.hits/misses/warm_starts/guided`` counters,
            ``tunedb.stale`` confirmations, and the
            ``tunedb.wall_saved_s`` gauge.
        confirm_rtol: relative tolerance between a replay's confirmation
            timing and the stored best time before the entry is deemed
            stale.
        lock_timeout_s: cross-process single-flight wait before running
            a (safe) duplicate campaign.
        top_k: how many predictor-ranked configurations are promoted to
            the front of the enumeration order.  Small on purpose: the
            tail keeps the existing heuristic order, bounding the
            downside of a badly calibrated predictor.
    """

    def __init__(self, db: TuneDB, gpu_key: str, metrics=None,
                 confirm_rtol: float = 0.25,
                 lock_timeout_s: float = 10.0, top_k: int = 3,
                 predictor: RidgePredictor | None = None) -> None:
        self.db = db
        self.gpu_key = gpu_key
        self.metrics = metrics
        self.confirm_rtol = confirm_rtol
        self.lock_timeout_s = lock_timeout_s
        self.top_k = top_k
        self.predictor = predictor or RidgePredictor()

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
             alpha: float = DEFAULT_ALPHA,
             keep_timings: bool = True) -> TuneResult:
        space = kernel.search_space
        if len(space) <= 1:
            # Nothing to amortize: a trivial space has no campaign to
            # skip and its one timing call costs what a replay would.
            res = evaluate_search_space(kernel, timing_fn, alpha=alpha,
                                        keep_timings=keep_timings)
            apply_tune_result(res)
            return res

        fp = kernel_fingerprint(kernel, self.gpu_key)
        with obs_span("guided_tune", category="tune", kernel=kernel.name,
                      fingerprint=fp, space=len(space)):
            def replay() -> TuneResult | None:
                entry = self.db.get(fp)
                if entry is None:
                    return None
                return self._try_replay(kernel, entry, timing_fn,
                                        keep_timings)

            result = replay()
            if result is not None:
                return result
            # After queueing behind another process's campaign,
            # ``replay`` its winner instead of duplicating the work.
            return single_flight(
                self.db.store, fp, self.lock_timeout_s, replay,
                lambda: self._cold_tune(kernel, timing_fn, fp, alpha,
                                        keep_timings))

    # -- replay --------------------------------------------------------

    def _try_replay(self, kernel: KernelSchedule, entry: TuneEntry,
                    timing_fn, keep_timings: bool) -> TuneResult | None:
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
                self.confirm_rtol * entry.best_time:
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
            timings=[(cfg, t)] if keep_timings else [],
        )
        apply_tune_result(res)
        return res

    # -- cold path -----------------------------------------------------

    def _cold_tune(self, kernel: KernelSchedule, timing_fn, fp: str,
                   alpha: float, keep_timings: bool) -> TuneResult:
        self._inc("tunedb.misses")
        kfeats = kernel_features(kernel)
        footprint = footprint_of(kernel)
        candidates = self._order_candidates(kernel, kfeats, footprint)

        samples: list[list] = []

        def recording(k: KernelSchedule, cfg: ScheduleConfig) -> float:
            t = timing_fn(k, cfg)
            samples.append([kfeats + config_features(k, cfg, footprint), t])
            return t

        with obs_span("tune_campaign", category="tune",
                      kernel=kernel.name, fingerprint=fp,
                      guided=candidates is not None):
            res = evaluate_search_space(kernel, recording, alpha=alpha,
                                        candidates=candidates,
                                        keep_timings=keep_timings)
        apply_tune_result(res)
        self.db.put(TuneEntry(
            fingerprint=fp,
            gpu=self.gpu_key,
            kernel_name=kernel.name,
            config=_config_to_dict(res.best_config),
            best_time=res.best_time,
            tuning_wall_time=res.tuning_wall_time,
            configs_evaluated=res.configs_evaluated,
            configs_quit_early=res.configs_quit_early,
            feature_version=FEATURE_VERSION,
            kernel_features=kfeats,
            samples=samples,
        ))
        return res

    def _order_candidates(
            self, kernel: KernelSchedule, kfeats: list[float],
            footprint: BlockFootprint) -> list[ScheduleConfig] | None:
        """Reorder the search space best-first, or None for the default
        enumeration order.  Always a permutation of the space."""
        space = kernel.search_space
        if self.predictor.should_refit(len(self.db.samples())):
            self.predictor.fit(self.db.samples())
        if self.predictor.ready:
            fvecs = [kfeats + config_features(kernel, cfg, footprint)
                     for cfg in space]
            scores = self.predictor.predict(fvecs)
            if scores is not None and np.all(np.isfinite(scores)):
                k = min(self.top_k, len(space))
                # Promote the k most promising configs (stable argsort
                # keeps promotion deterministic on score ties); the tail
                # keeps the enumeration heuristic's order.
                top = list(np.argsort(scores, kind="stable")[:k])
                front = [space[i] for i in top]
                self._inc("tunedb.guided")
                return self._promote(space, front)
        neighbor = self._nearest_neighbor_config(kernel, kfeats)
        if neighbor is not None:
            self._inc("tunedb.warm_starts")
            return self._promote(space, [neighbor])
        return None

    def _nearest_neighbor_config(
            self, kernel: KernelSchedule,
            kfeats: list[float]) -> ScheduleConfig | None:
        """Winning config of the closest already-tuned kernel, if it is
        a member of this kernel's search space."""
        target = np.asarray(kfeats, dtype=float)
        best: tuple[float, str, ScheduleConfig] | None = None
        for entry in self.db.entries():
            if (entry.feature_version != FEATURE_VERSION
                    or entry.gpu != self.gpu_key
                    or entry.config is None
                    or len(entry.kernel_features) != len(kfeats)):
                continue
            try:
                cfg = _config_from_dict(entry.config)
            except Exception:
                continue
            if cfg not in kernel.search_space:
                continue
            dist = float(np.linalg.norm(
                target - np.asarray(entry.kernel_features, dtype=float)))
            # Tie-break on fingerprint so the choice never depends on
            # LRU iteration order.
            key = (dist, entry.fingerprint)
            if best is None or key < (best[0], best[1]):
                best = (dist, entry.fingerprint, cfg)
        return best[2] if best is not None else None

    @staticmethod
    def _promote(space: list[ScheduleConfig],
                 front: list[ScheduleConfig]) -> list[ScheduleConfig]:
        """Move ``front`` configs to the head, preserving the rest's
        relative order; result is a permutation of ``space``."""
        seen: set[ScheduleConfig] = set()
        head: list[ScheduleConfig] = []
        for cfg in front:
            if cfg not in seen:
                seen.add(cfg)
                head.append(cfg)
        return head + [cfg for cfg in space if cfg not in seen]
