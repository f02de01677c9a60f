"""Two-tier persistent tuning database.

Stores the outcome of one tuning campaign per kernel fingerprint: the
winning configuration, its measured time and the campaign cost.

Both tiers come from :mod:`repro.store`; this module is the
:class:`TuneEntry` codec and the counters over them:

* an in-process :class:`~repro.store.LRU` absorbs the within-compile
  reuse — the partition search re-tunes identical subgraphs across
  candidate paths dozens of times per model;
* an optional :class:`~repro.store.DiskStore` (one JSON file per
  fingerprint) shares campaigns across processes, restarts, and — via a
  common directory — the whole serving fleet;
* next to it, ``models/`` holds one entry per compiled model
  (:mod:`repro.tune.models`).

A disk-tier failure is never raised into the compile path: an
unreadable, corrupt, or version-incompatible entry is *contained* as a
miss and deleted, a failed write only loses warm restarts.
``TuneDBError`` is reserved for caller mistakes (bad entry payloads on
``put``).
"""

from __future__ import annotations

import json
import pathlib
import threading
import time
from dataclasses import dataclass

from ..resilience import faults as _faults
from ..resilience.retry import TRANSIENT
from ..store import LRU, DiskStore

#: Failpoints on the disk tier (armed only by tests/chaos): a fault here
#: must degrade to a miss (get) or a lost persist (put), never an error.
FP_DB_GET = _faults.register("tune.db.get")
FP_DB_PUT = _faults.register("tune.db.put")

#: Bump on any incompatible change to the entry payload below.  Entries
#: written under another version are treated as misses and removed; keys
#: the payload no longer has (an older entry's ``samples``) are ignored.
DB_FORMAT_VERSION = 1

#: Subdirectory of the disk tier holding whole-model entries.
MODELS_DIR = "models"


class TuneDBError(Exception):
    """Invalid entry payload handed to (or loaded by) the database."""


@dataclass
class TuneEntry:
    """One persisted tuning outcome."""

    fingerprint: str
    gpu: str
    kernel_name: str
    #: Winning configuration in the ``_config_to_dict`` wire form.
    config: dict | None
    best_time: float
    #: Simulated wall-clock the original full campaign cost — what a
    #: replaying worker *saves* (minus its one confirmation run).
    tuning_wall_time: float
    configs_evaluated: int
    configs_quit_early: int
    created: float = 0.0

    def to_dict(self) -> dict:
        return {
            "format_version": DB_FORMAT_VERSION,
            "fingerprint": self.fingerprint,
            "gpu": self.gpu,
            "kernel_name": self.kernel_name,
            "config": self.config,
            "best_time": self.best_time,
            "tuning_wall_time": self.tuning_wall_time,
            "configs_evaluated": self.configs_evaluated,
            "configs_quit_early": self.configs_quit_early,
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, data: dict) -> TuneEntry:
        if not isinstance(data, dict):
            raise TuneDBError("entry payload is not an object")
        if data.get("format_version") != DB_FORMAT_VERSION:
            raise TuneDBError(
                f"entry format {data.get('format_version')!r} != "
                f"{DB_FORMAT_VERSION}")
        try:
            entry = cls(
                fingerprint=str(data["fingerprint"]),
                gpu=str(data["gpu"]),
                kernel_name=str(data["kernel_name"]),
                config=data["config"],
                best_time=float(data["best_time"]),
                tuning_wall_time=float(data["tuning_wall_time"]),
                configs_evaluated=int(data["configs_evaluated"]),
                configs_quit_early=int(data["configs_quit_early"]),
                created=float(data.get("created", 0.0)),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TuneDBError(f"malformed entry: {exc}") from exc
        if entry.config is not None and not isinstance(entry.config, dict):
            raise TuneDBError("entry config must be a dict or null")
        return entry


def _decode(text: str) -> TuneEntry:
    return TuneEntry.from_dict(json.loads(text))


#: What :func:`_decode` raises on a corrupt or incompatible entry.
_DECODE_ERRORS = (ValueError, TuneDBError)


class TuneDB:
    """Two-tier (LRU + optional disk) store of tuning outcomes.

    Args:
        directory: disk tier root; ``None`` for a process-local DB.
        capacity: in-process LRU bound (entries).
    """

    def __init__(self, directory: str | pathlib.Path | None = None,
                 capacity: int = 256, metrics=None) -> None:
        #: Disk tier, or None for a process-local DB; also what
        #: :func:`repro.store.single_flight` locks campaigns on.
        self.store = DiskStore(directory) if directory is not None else None
        self.directory = self.store.directory if self.store else None
        #: Whole-model entries (:mod:`repro.tune.models`): a subdirectory,
        #: so kernel-entry maintenance never reads one as a corrupt
        #: campaign; it appears with the first model compile.
        self.models = DiskStore(self.directory / MODELS_DIR, create=False) \
            if self.store else None
        #: Optional :class:`~repro.serve.metrics.ServeMetrics` — contained
        #: disk-tier errors are counted as ``tunedb.disk_errors`` so the
        #: chaos harness can assert the faults were absorbed, not hidden.
        self.metrics = metrics
        self._mem = LRU(capacity)
        self._mu = threading.Lock()     # guards the counters
        self.mem_hits = 0
        self.disk_hits = 0
        self.misses = 0

    # -- core get/put --------------------------------------------------

    def get(self, fingerprint: str) -> TuneEntry | None:
        """Look up one fingerprint; disk hits promote into the LRU.

        Corrupt or version-incompatible disk entries are deleted and
        counted as misses — the caller re-runs the campaign and its
        ``put`` overwrites the bad file.
        """
        entry = self._mem.get(fingerprint)
        if entry is not None:
            with self._mu:
                self.mem_hits += 1
            return entry
        if self.store is not None:
            try:
                _faults.fire(FP_DB_GET)
                entry, contained = self.store.load(fingerprint, _decode,
                                                   _DECODE_ERRORS)
            except _faults.FaultInjected:
                # An injected read fault is contained like a real one.
                self.store.delete(fingerprint)
                contained = True
            if contained:
                self._count_disk_error()
        with self._mu:
            if entry is None:
                self.misses += 1
                return None
            self.disk_hits += 1
        self._mem.put(fingerprint, entry)
        return entry

    def put(self, entry: TuneEntry) -> None:
        """Store into both tiers; the disk write is atomic."""
        if not entry.fingerprint:
            raise TuneDBError("entry has no fingerprint")
        if not entry.created:
            entry.created = time.time()
        self._mem.put(entry.fingerprint, entry)
        if self.store is None:
            return
        try:
            _faults.fire(FP_DB_PUT)
            self.store.write(entry.fingerprint, json.dumps(entry.to_dict()))
        except TRANSIENT:
            # Contained: the entry is already in the memory tier, only
            # warm restarts lose it.
            self._count_disk_error()

    def _count_disk_error(self) -> None:
        if self.metrics is not None:
            self.metrics.inc("tunedb.disk_errors")

    def invalidate(self, fingerprint: str) -> None:
        """Drop one entry from both tiers (stale confirmation, etc.)."""
        self._mem.pop(fingerprint)
        if self.store is not None:
            self.store.delete(fingerprint)

    def entries(self) -> list[TuneEntry]:
        """Snapshot of the in-memory tier."""
        return self._mem.values()

    # -- maintenance / CLI ---------------------------------------------

    def disk_stats(self) -> dict:
        def sizes(store: DiskStore | None) -> list[int]:
            paths = [store.path(k) for k in store.keys()] if store else []
            return [p.stat().st_size for p in paths if p.exists()]

        kernels, models = sizes(self.store), sizes(self.models)
        return {
            "directory": str(self.directory) if self.directory else None,
            "disk_entries": len(kernels),
            "disk_bytes": sum(kernels),
            "model_entries": len(models),
            "model_bytes": sum(models),
            "mem_entries": len(self._mem),
            "mem_hits": self.mem_hits,
            "disk_hits": self.disk_hits,
            "misses": self.misses,
        }

    def export(self) -> list[dict]:
        """All readable disk entries (memory tier if disk-less)."""
        if self.store is None:
            return [e.to_dict() for e in self.entries()]
        out = []
        for key in self.store.keys():
            try:
                text = self.store.read(key)
                if text is not None:
                    out.append(_decode(text).to_dict())
            except (OSError, *_DECODE_ERRORS):
                continue
        return out

    def prune(self, max_age_s: float | None = None,
              keep: int | None = None) -> int:
        """Remove stale disk entries.

        Deletes kernel entries older than ``max_age_s`` (by their
        ``created`` stamp), unreadable entries, and — if ``keep`` is set —
        all but the ``keep`` most recent.  Model entries are aged and
        bounded the same way, by their file's modification time and
        their own ``keep``.  Returns the number removed.
        """
        removed = 0
        kernels: list[tuple[float, str]] = []
        for key in (self.store.keys() if self.store else []):
            entry, contained = self.store.load(key, _decode, _DECODE_ERRORS)
            if entry is None:
                removed += contained    # load deleted an unreadable entry
            else:
                kernels.append((entry.created, key))
        removed += _prune(kernels, max_age_s, keep, self.invalidate)
        if self.models is not None:
            models = [(self.models.path(k).stat().st_mtime, k)
                      for k in self.models.keys()]
            removed += _prune(models, max_age_s, keep, self.models.delete)
        return removed


def _prune(stamped: list[tuple[float, str]], max_age_s: float | None,
           keep: int | None, delete) -> int:
    """``delete`` every key older than ``max_age_s`` or outside the
    ``keep`` newest; the number deleted."""
    now = time.time()
    stamped = sorted(stamped, key=lambda item: item[0], reverse=True)
    doomed = [key for rank, (stamp, key) in enumerate(stamped)
              if (keep is not None and rank >= keep)
              or (max_age_s is not None and now - stamp > max_age_s)]
    for key in doomed:
        delete(key)
    return len(doomed)
