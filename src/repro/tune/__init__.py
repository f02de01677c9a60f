"""Persistent cross-run tuning database and the policy that replays it.

The paper's §6.5 tuning procedure re-runs its full
enumeration-with-α-early-quit campaign for every kernel every process has
never seen — even when an identical schedule was tuned seconds earlier by
a sibling worker in the same fleet.  This package amortizes that work:

* :class:`TuneDB` — a two-tier (in-process LRU + on-disk) database keyed
  by a canonical kernel-schedule fingerprint (SMG structure + search
  space + GPU identity), storing the winning configuration, its timing,
  and the campaign stats.  Disk writes are atomic and corrupt or
  version-incompatible entries are contained as misses — the
  :mod:`repro.store` mechanism that also backs
  :class:`~repro.core.serialize.ScheduleCache`.
* :class:`GuidedTuner` — a tuning policy for
  :class:`~repro.core.compiler.SpaceFusionCompiler`: exact-fingerprint
  hits skip the campaign entirely (verified by one confirmation timing);
  a miss runs the paper's campaign unchanged and stores its winner.
  Chosen winners are bitwise-identical to
  :class:`~repro.core.autotuner.DefaultTuner`'s; only the simulated
  tuning wall-clock shrinks.

Fleet semantics: pointing every worker's ``TuneDB`` at one shared
directory makes a kernel's campaign run once fleet-wide — cold
fingerprints single-flight through a per-fingerprint advisory file lock
(:func:`repro.store.single_flight`), and every other worker replays the
winner as a one-run confirmation.
"""

from .db import DB_FORMAT_VERSION, TuneDB, TuneDBError, TuneEntry
from .fingerprint import gpu_fingerprint, kernel_fingerprint
from .guided import GuidedTuner

__all__ = [
    "DB_FORMAT_VERSION",
    "GuidedTuner",
    "TuneDB",
    "TuneDBError",
    "TuneEntry",
    "gpu_fingerprint",
    "kernel_fingerprint",
]
