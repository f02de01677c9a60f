"""Whole-model entries: a warm model compile is one store read.

With a disk-tier :class:`~repro.tune.TuneDB`, ``compile_model_for`` keeps
the whole compiled model as one compact-JSON entry in
``<tunedb dir>/models/``.  A hit times each tunable kernel's stored config
once against the time stored at write (``CONFIRM_RTOL``); a
disagreement deletes the entry and compiles as on a miss.  Layout, key and
rules: docs/store.md, "Stored schedules are shared, read-only values".
"""

from __future__ import annotations

import contextlib
import json

from ..core.compiler import CompiledModel, CompiledSubprogram, CompileStats
from ..core.serialize import (
    SerializeError,
    graph_key_text,
    schedule_from_dict,
    schedule_to_dict,
    shared_schedule,
    text_digest,
)
from ..ir.program import TensorProgram
from ..obs import event as obs_event
from ..store import LRU, single_flight
from .guided import CONFIRM_RTOL

#: Part of the key: entries of another payload version are never read.
MODEL_FORMAT_VERSION = 1


def model_key(program: TensorProgram, gpu_key: str, options) -> str:
    # Whole graphs with names (Subprogram.signature() omits names and
    # wiring), as listed: finer than the compile's dedup, still exact.
    return text_digest(repr(
        (MODEL_FORMAT_VERSION, gpu_key, repr(options),
         [(graph_key_text(sub.graph), sub.occurrences)
          for sub in program.subprograms])))[:24]


#: ``text digest -> ([(occurrences, kernels, stored times), ...], stored
#: campaign wall)`` of entries read lately: while every schedule of the
#: same bytes is still shared, a read parses nothing.
_HEADERS = LRU(64)


def _decode(text: str) -> tuple[list, float, dict]:
    """``([(subprogram, stored kernel times), ...], stored campaign wall,
    the model's kept totals)``; the schedules and the totals are the ones
    every reader of these bytes shares."""
    digest = text_digest(text)
    header = _HEADERS.get(digest)
    schedules = [] if header is None else [
        shared_schedule((digest, i)) for i in range(len(header[0]))]
    if header is None or any(s is None for s in schedules):
        payload = json.loads(text)
        header = ([(e["occurrences"], e["kernels"], e["times"])
                   for e in payload["subprograms"]],
                  float(payload["tuning_wall_time"]), {})
        schedules = [shared_schedule(
            (digest, i), lambda e=e: schedule_from_dict(e["schedule"]))
            for i, e in enumerate(payload["subprograms"])]
        if any(len(times) != len(schedule.kernels) for (_, _, times),
               schedule in zip(header[0], schedules)):
            raise ValueError("one stored time per kernel expected")
        _HEADERS.put(digest, header)
    return [(CompiledSubprogram(schedule, CompileStats(kernels=kernels),
                                occurrences), times)
            for schedule, (occurrences, kernels, times)
            in zip(schedules, header[0])], *header[1:]


def compile_model_stored(compiler, program: TensorProgram) -> CompiledModel:
    """``compiler.compile_model(program)`` through the model entries of the
    database of ``compiler.tuner`` (a :class:`~repro.tune.GuidedTuner`)."""
    tuner, timing_fn = compiler.tuner, compiler.timing_fn
    store = tuner.db.models
    key = model_key(program, tuner.gpu_key, compiler.options)

    def read() -> CompiledModel | None:
        decoded, contained = store.load(
            key, _decode, (ValueError, KeyError, TypeError, SerializeError))
        if contained:
            tuner.db._count_disk_error()
        if decoded is None:
            return None
        pairs, stored_wall, model_costed = decoded
        model = CompiledModel(program.name, [], CompileStats())
        for sub, times in pairs:
            for kernel, stored in zip(sub.schedule.kernels, times):
                if stored is None:
                    continue
                t = timing_fn(kernel, kernel.config)
                if stored > 0 and abs(t - stored) > \
                        CONFIRM_RTOL * stored:
                    tuner._inc("tunedb.stale")
                    obs_event("model_store_stale", category="tune", key=key,
                              kernel=kernel.name, stored_time=stored,
                              confirm_time=t)
                    store.delete(key)
                    return None
                sub.stats.configs_evaluated += 1
                sub.stats.tuning_wall_time += t
            model.subprograms.append(sub)
            model.stats.merge(sub.stats)
        model.costed = model_costed
        confirmed, confirm_s = (model.stats.configs_evaluated,
                                model.stats.tuning_wall_time)
        tuner._inc("tunedb.hits", confirmed)
        tuner._saved(stored_wall - confirm_s)
        obs_event("model_store_hit", category="tune", key=key,
                  kernels=confirmed, confirm_s=confirm_s,
                  wall_saved_s=max(stored_wall - confirm_s, 0.0))
        return model

    def produce() -> CompiledModel:
        model = compiler.compile_model(program)
        subs = [{"occurrences": sub.occurrences, "kernels": sub.stats.kernels,
                 "times": [timing_fn(k, k.config)
                           if len(k.search_space) > 1 and k.config is not None
                           else None for k in sub.schedule.kernels],
                 "schedule": schedule_to_dict(sub.schedule)}
                for sub in model.subprograms]
        try:
            store.write(key, json.dumps(
                {"tuning_wall_time": model.stats.tuning_wall_time,
                 "subprograms": subs}, separators=(",", ":")))
        except OSError:     # only warm compiles are lost
            tuner.db._count_disk_error()
        obs_event("model_store_miss", category="tune", key=key,
                  kernels=sum(t is not None for s in subs for t in s["times"]),
                  tuning_wall_s=model.stats.tuning_wall_time)
        return model

    found = read()
    if found is not None:
        return found
    with contextlib.suppress(OSError):  # read-only: compile, unstored
        store.directory.mkdir(exist_ok=True)
    return single_flight(store, key, tuner.lock_timeout_s, read, produce)
