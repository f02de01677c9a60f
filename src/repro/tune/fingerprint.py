"""Canonical fingerprints for tuning-database keys.

A TuneDB entry is reusable exactly when the tuning problem is identical:
same fused-graph structure, same search space, same device model.  The
fingerprint therefore hashes

* the kernel's dataflow graph (tensors, dims, ops — via the stable
  :func:`~repro.core.serialize.graph_to_dict` encoding) with the
  graph *name* blanked: subgraph names embed the partition-path indices
  the compiler explored (``model.c0.g1`` vs ``model.g2.c0``), and the
  same subgraph reached through different candidate paths must hash
  identically for within-compile reuse to work;
* the schedule shape: spatial dims, the temporal aggregation plan's
  sliced dim / stage count / rewrite flag (a UTA-rewritten kernel times
  differently from the SA form of the same graph);
* the full enumerated search space (tuning over a different candidate
  set is a different campaign, even on the same graph);
* the memory-level assignment; and
* the GPU identity (every field of the :class:`~repro.hw.specs.GPUSpec`
  — two presets with the same name but different bandwidths must not
  share entries).

The digest is sha256 truncated to 24 hex chars, matching the
``ScheduleCache`` key convention.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json

from ..core.schedule import KernelSchedule
from ..core.serialize import _config_to_dict, graph_to_dict
from ..hw.specs import GPUSpec


@functools.lru_cache(maxsize=64)
def gpu_fingerprint(gpu: GPUSpec) -> str:
    """Stable identity string for a device model.

    Built from every dataclass field, not just the name, so edited or
    hypothetical specs (the what-if sweeps in the experiments CLI) never
    alias a preset's entries.  Computed once per spec.
    """
    fields = {f.name: getattr(gpu, f.name)
              for f in dataclasses.fields(gpu)}
    blob = json.dumps(fields, sort_keys=True, default=str)
    return f"{gpu.name}-{hashlib.sha256(blob.encode()).hexdigest()[:12]}"


def kernel_fingerprint(kernel: KernelSchedule, gpu_key: str) -> str:
    """Canonical key of one tuning problem (kernel x search space x GPU)."""
    graph_dict = graph_to_dict(kernel.smg.graph)
    graph_dict["name"] = ""
    plan = kernel.plan
    payload = {
        "graph": graph_dict,
        "spatial_dims": list(kernel.spatial_dims),
        "plan": None if plan is None else {
            "dim": plan.dim,
            "n_stages": len(plan.stages),
            "rewritten": plan.rewritten,
        },
        "search_space": [_config_to_dict(cfg)
                         for cfg in kernel.search_space],
        "memory_levels": sorted(kernel.memory_levels.items()),
        "gpu": gpu_key,
    }
    blob = json.dumps(payload, sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()[:24]
