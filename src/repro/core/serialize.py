"""Schedule serialization: save and restore compiled kernel schedules.

The paper's program preprocessing compiles each repetitive subprogram once
per *process*; persisting schedules extends that across processes — a
compile cache keyed by (graph signature, GPU, compiler options), the same
role Triton's on-disk kernel cache plays for the real system.

Everything needed to re-execute a schedule is serialised: the dataflow
graph, the slicing decision, the chosen configuration, the aggregation
plan with its update functions, and the memory-level assignment.  The SMG
is rebuilt from the graph on load (it is derived state).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import weakref
from typing import Callable

from ..ir.graph import DataflowGraph
from ..ir.ops import Op
from ..ir.tensor import DimRegistry, TensorSpec
from ..store import DiskStore
from .builder import build_smg
from .schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from .temporal_slicer import AggregationPlan, ReductionStage
from .update_functions import AddOffset, NormFactor, UpdateFunction

FORMAT_VERSION = 1


class SerializeError(Exception):
    """Raised on malformed or incompatible serialised schedules."""


# ----------------------------------------------------------------------
# Graph <-> dict
# ----------------------------------------------------------------------


def graph_to_dict(graph: DataflowGraph) -> dict:
    return {
        "name": graph.name,
        "dims": dict(graph.dims.items()),
        "tensors": [
            {"name": t.name, "dims": list(t.dims), "dtype": t.dtype,
             "is_weight": t.is_weight}
            for t in graph.tensors.values()
        ],
        "ops": [
            {
                "name": op.name, "kind": op.kind,
                "inputs": list(op.inputs), "output": op.output,
                "input_axes": [list(a) for a in op.input_axes],
                "output_axes": list(op.output_axes),
                "iter_dims": list(op.iter_dims),
                "reduce_dims": list(op.reduce_dims),
                "reduce_kind": op.reduce_kind,
                "attrs": _plain_attrs(op),
            }
            for op in graph.ops
        ],
        "declared_outputs": graph.declared_outputs,
    }


def _plain_attrs(op: Op) -> dict:
    """The attrs a stored graph keeps: plain values only."""
    return {k: v for k, v in op.attrs.items()
            if isinstance(v, (int, float, str, bool, list, tuple)) or v is None}


def graph_key_text(graph: DataflowGraph) -> str:
    """What the store keys hash: all :func:`graph_to_dict` encodes, in
    one walk over the frozen tensor and op fields, attrs sorted."""
    return repr((
        graph.name, graph.dims.items(),
        [(t.name, t.dims, t.dtype, t.is_weight)
         for t in graph.tensors.values()],
        [(op.name, op.kind, op.inputs, op.output, op.input_axes,
          op.output_axes, op.iter_dims, op.reduce_dims, op.reduce_kind,
          sorted(_plain_attrs(op).items())) for op in graph.ops],
        graph.declared_outputs))


def graph_from_dict(data: dict) -> DataflowGraph:
    """Decode a graph; the text comes from disk (stored schedules, model
    entries, oracle reproducers), so every tensor and op goes through the
    graph's own checks (known dims, defined operands, SSA)."""
    registry = DimRegistry()
    for name, size in data["dims"].items():
        registry.define(name, size)
    graph = DataflowGraph(data["name"], dims=registry)
    for t in data["tensors"]:
        graph.add_tensor(TensorSpec(
            t["name"], tuple(t["dims"]), t["dtype"], t["is_weight"]))
    for o in data["ops"]:
        attrs = dict(o["attrs"])
        if "perm" in attrs:
            attrs["perm"] = tuple(attrs["perm"])
        graph.add_op(Op(
            name=o["name"], kind=o["kind"], inputs=tuple(o["inputs"]),
            output=o["output"],
            input_axes=tuple(tuple(a) for a in o["input_axes"]),
            output_axes=tuple(o["output_axes"]),
            iter_dims=tuple(o["iter_dims"]),
            reduce_dims=tuple(o["reduce_dims"]),
            reduce_kind=o["reduce_kind"], attrs=attrs))
    graph.declared_outputs = data.get("declared_outputs")
    graph.validate()
    return graph


# ----------------------------------------------------------------------
# Schedule <-> dict
# ----------------------------------------------------------------------


def _config_to_dict(cfg: ScheduleConfig | None) -> dict | None:
    if cfg is None:
        return None
    return {"block": [list(pair) for pair in cfg.block], "tile": cfg.tile}


def _config_from_dict(data: dict | None) -> ScheduleConfig | None:
    if data is None:
        return None
    return ScheduleConfig.of(
        block=tuple((d, b) for d, b in data["block"]), tile=data["tile"])


def _plan_to_dict(plan: AggregationPlan | None) -> dict | None:
    if plan is None:
        return None
    return {
        "dim": plan.dim,
        "graph": graph_to_dict(plan.graph),
        "stages": [
            {
                "op_name": s.op_name, "output": s.output,
                "combiner": s.combiner,
                "factors": [[f.agg, f.func, f.power]
                            for f in s.update.factors],
                "offsets": [[o.agg, o.coeff] for o in s.update.offsets],
            }
            for s in plan.stages
        ],
        "tile_op_names": list(plan.tile_op_names),
        "pass2_op_names": list(plan.pass2_op_names),
        "rewritten": plan.rewritten,
    }


def _plan_from_dict(data: dict | None) -> AggregationPlan | None:
    if data is None:
        return None
    graph = graph_from_dict(data["graph"])
    stages = [
        ReductionStage(
            s["op_name"], s["output"], s["combiner"],
            UpdateFunction(
                s["output"],
                tuple(NormFactor(a, f, p) for a, f, p in s["factors"]),
                tuple(AddOffset(a, c) for a, c in s["offsets"])))
        for s in data["stages"]
    ]
    return AggregationPlan(
        dim=data["dim"], graph=graph, stages=stages,
        tile_op_names=list(data["tile_op_names"]),
        pass2_op_names=list(data["pass2_op_names"]),
        rewritten=data["rewritten"])


def kernel_to_dict(kernel: KernelSchedule) -> dict:
    assert kernel.smg.graph is not None
    return {
        "name": kernel.name,
        "graph": graph_to_dict(kernel.smg.graph),
        "spatial_dims": list(kernel.spatial_dims),
        "plan": _plan_to_dict(kernel.plan),
        "config": _config_to_dict(kernel.config),
        "search_space": [_config_to_dict(c) for c in kernel.search_space],
        "memory_levels": dict(kernel.memory_levels),
        "meta": {k: v for k, v in kernel.meta.items()
                 if isinstance(v, (int, float, str, bool)) or v is None},
    }


def kernel_from_dict(data: dict) -> KernelSchedule:
    graph = graph_from_dict(data["graph"])
    if data["meta"].get("barrier"):
        from .compiler import build_barrier_kernel
        kernel = build_barrier_kernel(graph)
        kernel.meta.update(data["meta"])
        return kernel
    smg = build_smg(graph, name=data["name"])
    return KernelSchedule(
        name=data["name"], smg=smg,
        spatial_dims=tuple(data["spatial_dims"]),
        plan=_plan_from_dict(data["plan"]),
        config=_config_from_dict(data["config"]),
        search_space=[_config_from_dict(c) for c in data["search_space"]],
        memory_levels=dict(data["memory_levels"]),
        meta=dict(data["meta"]))


def schedule_to_dict(schedule: ProgramSchedule) -> dict:
    return {
        "version": FORMAT_VERSION,
        "name": schedule.name,
        "meta": {k: v for k, v in schedule.meta.items()
                 if isinstance(v, (int, float, str, bool)) or v is None},
        "kernels": [kernel_to_dict(k) for k in schedule.kernels],
    }


def schedule_to_json(schedule: ProgramSchedule) -> str:
    return json.dumps(schedule_to_dict(schedule), indent=1, sort_keys=True)


def schedule_from_dict(payload) -> ProgramSchedule:
    if not isinstance(payload, dict):
        raise SerializeError(
            f"schedule payload must be an object, got {type(payload).__name__}")
    if payload.get("version") != FORMAT_VERSION:
        raise SerializeError(
            f"unsupported schedule format version {payload.get('version')} "
            f"(expected {FORMAT_VERSION})")
    try:
        sched = ProgramSchedule(payload["name"], meta=dict(payload["meta"]))
        for kdata in payload["kernels"]:
            sched.add(kernel_from_dict(kdata))
    except SerializeError:
        raise
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise SerializeError(f"truncated or corrupt schedule: {exc!r}") from exc
    return sched


def schedule_from_json(text: str) -> ProgramSchedule:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SerializeError(f"malformed schedule JSON: {exc}") from exc
    return schedule_from_dict(payload)


#: Every schedule decoded from stored text, keyed by the text's digest
#: (plus the schedule's index when one entry holds several).  Readers of
#: the same bytes share one read-only ``ProgramSchedule`` for as long as
#: any of them keeps it — the weak table of :mod:`.flyweight` — and with
#: it each kernel's cost-model characterisation.
_SHARED: weakref.WeakValueDictionary = weakref.WeakValueDictionary()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def shared_schedule(key, decode: Callable[[], ProgramSchedule] | None = None,
                    ) -> ProgramSchedule | None:
    """The live schedule under ``key``, else ``decode()``'s, now shared
    (no ``decode``: else None); callers must not mutate it."""
    found = _SHARED.get(key)
    if found is not None or decode is None:
        return found
    schedule = decode()
    schedule.costed = {}
    for kernel in schedule.kernels:
        kernel.characterised = {}
    return _SHARED.setdefault(key, schedule)


# ----------------------------------------------------------------------
# On-disk compile cache
# ----------------------------------------------------------------------


def cache_key(graph: DataflowGraph, gpu_name: str,
              options_repr: str = "") -> str:
    """Content hash identifying one (graph, GPU, options) compile."""
    return text_digest(graph_key_text(graph) + gpu_name + options_repr)[:24]


class ScheduleCache:
    """Persistent compile cache keyed by (graph, GPU, options) signature.

    A schedule-JSON codec plus hit/miss counters over a
    :class:`~repro.store.DiskStore` (``store``), which owns the atomic
    put and the containment rule.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        self.store = DiskStore(directory)
        self.directory = self.store.directory
        self.hits = 0
        self.misses = 0

    def get(self, graph: DataflowGraph, gpu_name: str,
            options_repr: str = "") -> ProgramSchedule | None:
        """Load a cached schedule, or None on a miss.

        An unreadable, corrupt, or version-incompatible entry counts as a
        miss (and is dropped) rather than poisoning every boot that hashes
        onto it — :func:`compile_cached` then recompiles and overwrites it.
        A hit is the :func:`shared_schedule` of the entry's bytes.
        """
        schedule, _contained = self.store.load(
            cache_key(graph, gpu_name, options_repr),
            lambda text: shared_schedule(
                text_digest(text), lambda: schedule_from_json(text)),
            (SerializeError,))
        if schedule is None:
            self.misses += 1
        else:
            self.hits += 1
        return schedule

    def put(self, graph: DataflowGraph, gpu_name: str,
            schedule: ProgramSchedule, options_repr: str = "") -> None:
        """Store atomically (see :meth:`repro.store.DiskStore.write`);
        a failed write raises and leaves the previous entry intact."""
        self.store.write(cache_key(graph, gpu_name, options_repr),
                         schedule_to_json(schedule))


def compile_cached(graph: DataflowGraph, gpu, cache: ScheduleCache,
                   options=None):
    """Compile through the cache: load on hit, compile+store on miss."""
    from ..pipeline import compile_for
    from ..tune.fingerprint import gpu_fingerprint

    options_repr = repr(options) if options is not None else ""
    # Every field of the spec, not its name: an edited spec that keeps a
    # preset's name must not be served the preset's schedule.
    gpu_key = gpu_fingerprint(gpu)
    cached = cache.get(graph, gpu_key, options_repr)
    if cached is not None:
        return cached, None
    schedule, stats = compile_for(graph, gpu, options)
    cache.put(graph, gpu_key, schedule, options_repr)
    return schedule, stats
