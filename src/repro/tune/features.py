"""Cheap schedule features for the guided tuning policy.

Two feature groups feed the predictor in :mod:`repro.tune.guided`:

* **kernel features** describe the fused kernel independently of any
  configuration — op-kind mix, modelled FLOPs, tensor footprint,
  arithmetic intensity, slicing shape.  They let timing samples gathered
  on one kernel inform the ranking of another kernel's search space
  (the DNNFuser-style transfer the ROADMAP's learned-tuning item asks
  for), and they drive the near-neighbor warm start.
* **config features** describe one point of the search space — block
  volume, tile, grid size, per-block footprint — the quantities the
  device cost model itself keys off, so a linear model over them ranks
  candidates usefully after only a handful of campaigns.

Everything is derived from the :class:`~repro.core.schedule.KernelSchedule`
alone (no simulator runs); extraction cost is a few graph walks.

``FEATURE_VERSION`` is stamped into every persisted sample: entries
recorded under a different feature definition are ignored by the
predictor instead of silently mis-calibrating it.
"""

from __future__ import annotations

import math

from ..core.resources import BlockFootprint, footprint_of
from ..core.schedule import KernelSchedule, ScheduleConfig
from ..ir.tensor import DTYPE_BYTES

#: Bump when the meaning/order of the vectors below changes.
FEATURE_VERSION = 1


def _log2(x: float) -> float:
    return math.log2(x) if x > 0 else 0.0


def kernel_features(kernel: KernelSchedule) -> list[float]:
    """Configuration-independent descriptor of one fused kernel."""
    graph = kernel.exec_graph
    registry = graph.dims
    n_ops = len(graph.ops)
    n_contractions = sum(op.is_contraction for op in graph.ops)
    n_reductions = sum(op.is_reduction and not op.is_contraction
                       for op in graph.ops)
    flops = sum(op.flops(registry) for op in graph.ops)
    elems = 0
    traffic_bytes = 0
    for spec in graph.tensors.values():
        n = 1
        for d in spec.dims:
            n *= registry.size(d)
        elems += n
        traffic_bytes += n * DTYPE_BYTES.get(spec.dtype, 4)
    intensity = flops / traffic_bytes if traffic_bytes else 0.0
    temporal_size = (kernel.smg.dim_size(kernel.plan.dim)
                     if kernel.plan is not None else 0)
    return [
        _log2(1 + flops),
        _log2(1 + elems),
        _log2(1 + intensity),
        float(n_ops),
        n_contractions / n_ops if n_ops else 0.0,
        n_reductions / n_ops if n_ops else 0.0,
        float(len(kernel.spatial_dims)),
        1.0 if kernel.plan is not None else 0.0,
        _log2(1 + temporal_size),
    ]


def config_features(kernel: KernelSchedule, cfg: ScheduleConfig,
                    footprint: BlockFootprint | None = None) -> list[float]:
    """Descriptor of one search-space point on ``kernel``.

    A caller describing many points of one kernel passes that kernel's
    ``footprint`` so the graph is analysed once, not once per point."""
    volume = 1
    for _dim, block in cfg.block:
        volume *= block
    grid = kernel.grid_size(cfg)
    intra = kernel.num_intra_blocks(cfg)
    block_elems = (footprint or footprint_of(kernel)).total_block_elems(cfg)
    return [
        _log2(volume),
        _log2(cfg.tile or 1),
        _log2(grid),
        _log2(intra),
        _log2(1 + block_elems),
        # Distance from the canonical 64x64 working tile — the same
        # heuristic enumerate_configs ranks by, kept as an explicit
        # feature so the predictor can learn how much it matters per
        # kernel family instead of trusting it unconditionally.
        abs(_log2(volume) - _log2(64 * 64)),
    ]


def feature_vector(kernel: KernelSchedule,
                   cfg: ScheduleConfig) -> list[float]:
    """Full predictor input: kernel descriptor + config descriptor."""
    return kernel_features(kernel) + config_features(kernel, cfg)
