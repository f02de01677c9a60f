"""Analytical GPU cost model: the timing signal behind every experiment.

For each scheduled kernel the simulator derives, from the schedule structure
alone (no numerical execution):

* **global traffic** — exact per-tensor load accounting over the grid
  (sliced dimensions are partitioned exactly, so edge blocks on
  indivisible grids are not over-counted; spatial dimensions absent from a
  tensor duplicate its fetch once per block along them — the One-to-All
  duplication), with pass-2 epilogues re-reading their inputs;
  intermediates inside a fused kernel cost nothing (they stay on-chip, the
  whole point of operator fusion);
* **cache hierarchy** — a two-tier hit-rate model: intra-block pass-2
  re-reads hit L1/shared when the block's staged footprint fits
  (reuse-distance approximation), cross-block re-reads hit L2 as a
  function of the kernel's streamed working set vs capacity, and an
  inter-kernel :class:`~repro.hw.memory.L2State` LRU carries producer
  outputs to consumer kernels;
* **time** — max of tensor-core time, SIMT time (per-architecture
  instruction latency tables) and per-tier memory time, scaled by a
  Little's-law memory-level-parallelism/occupancy factor and wave effects,
  plus per-kernel launch overhead (CUDA-graph aware).

The absolute numbers are a model, not silicon; what the reproduction relies
on is that the *ratios* between schedules (fused vs unfused, SpaceFusion vs
FlashAttention, Volta vs Hopper) are governed by the same first-order terms
as on the paper's hardware: data movement, cache behaviour, launch count,
parallelism and peak throughput.  The model is cross-validated two ways:
byte-exact global-load agreement with the tracing executor
(``tests/integration/test_model_validation.py``) and hit-rate/ranking
agreement with the event-driven simulator on every preset
(``tests/hw/test_event_sim.py::TestCalibration``).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from ..core.resources import BlockFootprint, footprint_of
from ..core.schedule import KernelSchedule, ProgramSchedule, ScheduleConfig
from ..ir.graph import DataflowGraph
from ..ir.ops import ceil_div
from ..ir.tensor import DTYPE_BYTES
from .counters import PerfCounters
from .memory import L2State, streaming_hit_rate
from .specs import GPUSpec

#: Baseline fraction of peak tensor-core throughput a generated kernel
#: reaches with ideally sized blocks (Triton-class code generation).
_GEMM_BASE_EFFICIENCY = 0.70
#: Fraction of peak SIMT throughput for element-wise/reduction work.
_SIMT_EFFICIENCY = 0.60
#: Fraction of peak DRAM bandwidth streaming kernels achieve.
_DRAM_EFFICIENCY = 0.80
#: Asymptotic fraction of over-L2 re-reads that still miss to DRAM after
#: block rasterisation (swizzled scheduling shares slices between
#: neighbours even when the working set overflows the cache).
_L2_SPILL_REUSE = 0.25
#: The formula's operators ``(lo, hi, where, to_int)``: plain Python for
#: one configuration, numpy for a whole search space at once (``np.int64``
#: truncates an array toward zero the way ``int`` truncates a float).
_SCALAR = (min, max, lambda c, a, b: a if c else b, int)
_ARRAYS = (np.minimum, np.maximum, np.where, np.int64)


@dataclass(frozen=True)
class TensorTraffic:
    """Structural traffic of one input tensor under one configuration."""

    tensor: str
    #: The tensor's full size in device memory.
    full_bytes: int
    #: Exact global-load bytes of one pass over the whole grid: sliced
    #: dimensions partition exactly (edge blocks read only the remainder),
    #: absent spatial dimensions duplicate the fetch per block.
    pass_bytes: int
    #: One block's staged slice (nominal, interior block).
    block_bytes: int
    #: Number of passes over the grid (pass-1/pass-2 membership times any
    #: manual ``input_read_multiplier``).
    passes: float
    #: Blocks sharing one slice: product of grid extents along spatial
    #: dimensions the tensor does not carry (One-to-All duplication).
    dup: int

    @property
    def load_bytes(self) -> int:
        """Total global loads across all passes."""
        return int(self.pass_bytes * self.passes)


@dataclass
class KernelCostBreakdown:
    """Detailed cost components for one kernel (useful in tests/reports)."""

    grid: int
    load_bytes: int
    store_bytes: int
    dram_bytes: int
    flops_tensor: float
    flops_simt: float
    compute_time: float
    memory_time: float
    time_s: float
    #: Hierarchy detail: bytes served per tier and the resulting rates.
    l1_hit_bytes: int = 0
    l2_hit_bytes: int = 0
    #: Fraction of global load bytes that never left the SM (L1/shared).
    l1_hit_rate: float = 0.0
    #: Fraction of load bytes reaching L2 that were served without DRAM.
    l2_hit_rate: float = 0.0
    #: Fraction of input-tensor load bytes served above DRAM (any tier) —
    #: the quantity the event-driven simulator replays and cross-checks.
    read_hit_rate: float = 0.0
    #: DRAM bytes attributable to input-tensor reads alone (no stores, no
    #: spilled-output re-reads) — the replayed quantity.
    read_dram_bytes: int = 0
    #: Per-input-tensor structural traffic (the event sim replays these).
    traffic: list[TensorTraffic] = field(default_factory=list)


class TensorRow(NamedTuple):
    """What one kernel input or output contributes, before any config."""

    tensor: str
    full_bytes: int
    #: Element width in bytes.
    width: int
    dims: tuple[str, ...]
    #: Indices into :attr:`KernelTrafficPlan.spatial` of the spatial
    #: dimensions the tensor does not carry: it is re-fetched once per
    #: block along them (the One-to-All duplication).
    lacking: tuple[int, ...]
    #: Passes over the grid: pass-1/pass-2 membership times any manual
    #: ``input_read_multiplier`` (0 for outputs).
    passes: float


class KernelTrafficPlan:
    """The config-independent half of :meth:`DeviceSimulator.kernel_cost`.

    Built once per tuning campaign, from one look at the graph: which
    inputs the kernel streams and in how many passes, what it stores, the
    ops it issues and its :class:`BlockFootprint`.  Costing a
    configuration is then arithmetic on per-dimension block counts.  A
    kernel of a shared, read-only schedule keeps its plan (and the terms
    each GPU derives from it) for as long as the kernel lives
    (:attr:`KernelSchedule.characterised`): every later simulator in the
    process reuses them.
    """

    def __init__(self, kernel: KernelSchedule) -> None:
        graph = kernel.exec_graph
        plan = kernel.plan
        #: ``(dim, size)`` of the spatially sliced dimensions, grid order.
        self.spatial = [(d, kernel.smg.dim_size(d))
                        for d in kernel.spatial_dims]
        self.footprint: BlockFootprint = footprint_of(kernel)
        inputs = set(graph.input_tensors)
        if plan is None:
            ops = graph.ops
            reads = dict.fromkeys(inputs, 1)
        else:
            # Pass-2 epilogues recompute their ops and re-read their inputs.
            by_pass = [[graph.op(n) for n in names] for names in
                       (plan.tile_op_names, plan.pass2_op_names)]
            ops = by_pass[0] + by_pass[1]
            reads: dict[str, int] = {}
            for pass_ops in by_pass:
                for t in {t for op in pass_ops for t in op.inputs} & inputs:
                    reads[t] = reads.get(t, 0) + 1
        #: ``(is_contraction, flops, kind)`` per issued op.
        self.ops = [(op.is_contraction, op.flops(graph.dims), op.kind)
                    for op in ops]
        # Manual kernels may stream their inputs more often than the
        # canonical two-pass structure (e.g. the Triton LayerNorm tutorial
        # makes separate mean / variance / normalise loops: three reads).
        multiplier = float(kernel.meta.get("input_read_multiplier", 1.0))
        #: Size of every dimension a row carries.
        self.dims: dict[str, int] = {}

        def row(tensor: str, passes: float) -> TensorRow:
            spec = graph.tensors[tensor]
            for d in spec.dims:
                self.dims[d] = graph.dims.size(d)
            return TensorRow(
                tensor, spec.nbytes(graph.dims), DTYPE_BYTES[spec.dtype],
                spec.dims, tuple(i for i, d in enumerate(kernel.spatial_dims)
                                 if d not in spec.dims), passes)

        #: Streamed inputs in name order, then what the kernel stores.
        self.inputs = [row(t, reads[t] * multiplier) for t in sorted(reads)]
        self.outputs = [row(t, 0.0) for t in graph.output_tensors]
        #: Whether any input is read twice (only re-reads can hit in L1).
        self.rereads = any(row.passes > 1 for row in self.inputs)


class KernelNumbers(NamedTuple):
    """One ``(kernel, config)`` costed: the plain numbers ``kernel_time``,
    ``kernel_cost`` and the event-driven simulator all read."""

    time_s: float
    grid: int
    #: Blocks along each spatially sliced dimension.
    counts: list[int]
    #: Per input row: (bytes the whole grid loads in one pass — sliced
    #: dimensions partition exactly, so edge blocks are not rounded up —,
    #: one block's staged slice, blocks sharing one slice).
    rows: list[tuple[int, int, int]]
    #: One block's slice of each output row.
    out_blocks: list[int]
    load_bytes: int
    store_bytes: int
    dram_bytes: int
    l1_hit_bytes: int
    l2_access_bytes: int
    #: L2 accesses / DRAM bytes of input reads alone (no stores, no
    #: spilled-output re-reads).
    read_l2_access: int
    read_dram_bytes: int
    compute_time: float
    memory_time: float
    blocks_per_sm: int
    #: Little's-law latency-hiding factor, see ``_occupancy``.
    hide: float
    gemm_efficiency: float

    @property
    def read_hit_rate(self) -> float:
        return (1.0 - self.read_dram_bytes / max(self.read_l2_access, 1)
                if self.read_l2_access else 1.0)


class DeviceSimulator:
    """Cost model for one GPU specification."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self._rc = spec.resource_config()
        # The tuner times all configurations of one kernel back to back,
        # so remembering the last kernel's plan is enough.  One tuple,
        # matched by identity: (kernel, plan, *this architecture's terms);
        # a shared kernel carries the same terms for every simulator.
        self._last_plan: tuple | None = None
        # Beside it, once a campaign is under way: (kernel, (efficiency,
        # output_spill_factor), {config: seconds}) over its search space.
        self._last_times: tuple | None = None

    def _plan(self, kernel: KernelSchedule) -> tuple:
        """``(kernel, plan, tensor-core flops, weighted SIMT flops, raw L2
        hit rate, reuse miss fraction)`` — the plan plus what this
        architecture makes of it before any configuration is known."""
        memo = self._last_plan
        if memo is None or memo[0] is not kernel:
            shared = kernel.characterised
            if shared is None:
                terms = self._terms(KernelTrafficPlan(kernel))
            elif (terms := shared.get(self.spec)) is None:
                # One plan per kernel: the first entry's (a kept time comes
                # after its GPU's terms).  Racing threads build equal terms.
                known = list(shared.values())
                terms = shared[self.spec] = self._terms(
                    known[0][0] if known else KernelTrafficPlan(kernel))
            memo = self._last_plan = (kernel, *terms)
        return memo

    def _terms(self, plan: KernelTrafficPlan) -> tuple:
        spec = self.spec
        ftc = fsimt = 0.0
        for is_contraction, flops, kind in plan.ops:
            if is_contraction:
                ftc += flops
            else:
                fsimt += flops * spec.instruction_weight(kind)
        # --- L2 tier: cross-block re-reads -----------------------------
        # The kernel's streamed working set competing for L2: every
        # distinct byte it moves (inputs and outputs), each capped at the
        # capacity.  The reuse hit rate decays as the set overflows, with
        # a rasterisation floor: neighbouring blocks walk the same slices,
        # so at most ``_L2_SPILL_REUSE`` of over-capacity re-reads miss.
        stream_set = sum(min(row.full_bytes, spec.l2_capacity)
                         for row in plan.inputs + plan.outputs)
        l2_hit_raw = streaming_hit_rate(stream_set, spec.l2_capacity)
        return (plan, ftc, fsimt, l2_hit_raw,
                (1.0 - l2_hit_raw) * _L2_SPILL_REUSE)

    # ------------------------------------------------------------------
    # Efficiency factors
    # ------------------------------------------------------------------

    def _gemm_efficiency(self, kernel: KernelSchedule, config,
                         ops=_SCALAR) -> float:
        """Tensor-core utilisation as a function of block geometry: small
        blocks cannot feed the MMA pipelines (this is what makes block-size
        tuning matter)."""
        lo, hi, where, _ = ops
        extents = [b for _d, b in config.block]
        if config.tile is not None:
            extents.append(config.tile)
        # The two largest extents above 1 (the second is the first if alone).
        first = second = 1
        for e in extents:
            second = hi(second, lo(first, e))
            first = hi(first, e)
        second = where(second > 1, second, first)
        shape_factor = lo(1.0, first / 64.0) ** 0.5 * lo(1.0, second / 32.0) ** 0.5
        manual = kernel.meta.get("efficiency", 1.0)
        return hi(0.05, _GEMM_BASE_EFFICIENCY * shape_factor * manual)

    def _occupancy(self, footprint: BlockFootprint, config, ops=_SCALAR,
                   ) -> tuple[int, float]:
        """(blocks per SM, memory-latency-hiding factor).

        The hiding factor is Little's law: covering the DRAM latency at
        full effective bandwidth needs ``bandwidth x latency`` bytes in
        flight; each resident block sustains ``mlp_per_block`` outstanding
        cache lines, so low occupancy leaves the memory pipeline
        under-fed and caps achievable bandwidth."""
        lo, hi, _, _ = ops
        spec = self.spec
        smem, regs = footprint.usage(config.block, config.tile, self._rc,
                                     lo, hi)
        by_smem = hi(1, spec.smem_per_sm // hi(smem, 1))
        by_regs = hi(1, spec.regfile_per_sm // hi(regs, 1))
        bps = hi(1, lo(lo(spec.max_blocks_per_sm, by_smem), by_regs))
        inflight = bps * (spec.mlp_per_block * spec.line_bytes
                          * spec.sm_count)
        needed = spec.dram_bandwidth * _DRAM_EFFICIENCY * spec.dram_latency
        hide = lo(1.0, inflight / max(needed, 1.0))
        return bps, hide

    # ------------------------------------------------------------------
    # Kernel cost
    # ------------------------------------------------------------------

    def _evaluate(self, kernel: KernelSchedule, config, l2: L2State | None,
                  launch_overhead: float | None, ops=_SCALAR) -> KernelNumbers:
        """The one place the traffic and time formulas live: arithmetic
        on the kernel's plan, nothing read from the graph.  ``config``
        (``None``: the kernel's effective one) holds ints (``_SCALAR``) or
        a search space's int64 arrays (``_ARRAYS``: the numbers too)."""
        spec = self.spec
        lo, hi, where, to_int = ops
        _, plan, ftc, fsimt, l2_hit_raw, reuse_miss_frac = self._plan(kernel)
        cfg = config or kernel.effective_config()
        blocks = dict(reversed(cfg.block))  # first entry for a dim wins
        try:
            counts = [ceil_div(size, blocks[dim])
                      for dim, size in plan.spatial]
        except KeyError as exc:
            raise ValueError(
                f"config lacks block size for dim {exc.args[0]!r}") from None
        grid = math.prod(counts)

        # --- L1/shared tier: intra-block re-reads ----------------------
        # A block stages each operand slice once per pass; re-reads in
        # later passes (pass-2 epilogues, extra manual sweeps) hit L1 when
        # the block's staged footprint still fits.  One interior block's
        # slice: the temporal dimension is streamed, so it contributes its
        # full extent; spatial dimensions contribute the block size.
        extent = {dim: size if (block := blocks.get(dim)) is None
                  else lo(block, size) for dim, size in plan.dims.items()}
        staged = []
        for row in plan.inputs + plan.outputs:
            nbytes = row.width
            for dim in row.dims:
                nbytes *= extent[dim]
            staged.append(nbytes)
        l1_hit_frac = (streaming_hit_rate(sum(staged), spec.l1_capacity, hi)
                       if plan.rereads else 0.0)

        rows = []
        load_bytes = dram_bytes = l1_hit_bytes = l2_access_bytes = 0
        for row, block_bytes in zip(plan.inputs, staged):
            # Spatially sliced dimensions the tensor carries partition
            # exactly across their blocks (edge blocks read only the
            # remainder); the ones it lacks re-fetch it once per block.
            dup = 1
            for i in row.lacking:
                dup *= counts[i]
            pass_bytes = row.full_bytes * dup
            rows.append((pass_bytes, block_bytes, dup))
            total_loads = l2_access = to_int(pass_bytes * row.passes)
            load_bytes += total_loads
            if row.passes > 1:
                # Only the re-read passes can hit in L1.
                l1_hits = to_int((total_loads - pass_bytes) * l1_hit_frac)
                l1_hit_bytes += l1_hits
                l2_access = total_loads - l1_hits
            l2_access_bytes += l2_access
            if l2 is not None and l2.is_resident(row.tensor):
                # Still resident from a producer kernel: no DRAM at all.
                l2.touch(row.tensor)
            else:
                compulsory = lo(row.full_bytes, l2_access)
                dram_bytes += compulsory
                if reuse_miss_frac:
                    reuse = l2_access - compulsory
                    dram_bytes += to_int(reuse * reuse_miss_frac)
        read_l2_access = l2_access_bytes
        read_dram = dram_bytes

        spill = kernel.meta.get("output_spill_factor", 1.0)
        store_bytes = 0
        for row in plan.outputs:
            store_bytes += int(row.full_bytes * spill)
            if spill > 1.0:
                # Re-read of spilled partial outputs (FlashAttention-1's
                # outer K/V loop rewrites O in device memory).  The
                # partial output was just written, so the re-read goes
                # through the same residency model as every other read:
                # it hits L2 unless the kernel's streamed working set
                # overflows the cache.  No rasterisation floor — each
                # block re-reads its *own* slice a full outer iteration
                # later, so neighbours share nothing.
                re_read = int(row.full_bytes * (spill - 1.0))
                load_bytes += re_read
                l2_access_bytes += re_read
                dram_bytes += int(re_read * (1.0 - l2_hit_raw))
            if l2 is not None:
                l2.insert(row.tensor, row.full_bytes)
        dram_bytes += store_bytes
        l2_access_bytes += store_bytes

        # --- timing -----------------------------------------------------
        eff = self._gemm_efficiency(kernel, cfg, ops)
        manual = kernel.meta.get("efficiency", 1.0)
        tc_time = ftc / (spec.tensor_flops * eff) if ftc else 0.0
        simt_time = (fsimt / (spec.simt_flops * _SIMT_EFFICIENCY * manual)
                     if fsimt else 0.0)
        compute_raw = tc_time + simt_time

        bps, hide = self._occupancy(plan.footprint, cfg, ops)
        # Full waves are quantised; a partial one leaves SMs idle.
        par_frac = grid / spec.sm_count
        compute_time = where(
            grid >= spec.sm_count,
            compute_raw * (ceil_div(grid, spec.sm_count) / par_frac),
            compute_raw / hi(par_frac, 1e-6))

        bw_frac = hi(lo(1.0, grid / (spec.sm_count * 0.5)) * hide, 1e-6)
        dram_time = dram_bytes / (spec.dram_bandwidth * _DRAM_EFFICIENCY
                                  * bw_frac)
        l2_time = l2_access_bytes / (spec.l2_bandwidth * bw_frac)
        l1_time = (load_bytes + store_bytes) / (spec.l1_bandwidth
                                                * hi(lo(1.0, par_frac), 1e-6))
        overhead = (spec.kernel_launch_overhead
                    if launch_overhead is None else launch_overhead)
        memory_time = hi(hi(dram_time, l2_time), l1_time)
        return KernelNumbers(
            hi(compute_time, memory_time) + overhead, grid, counts, rows,
            staged[len(rows):], load_bytes, store_bytes, dram_bytes,
            l1_hit_bytes, l2_access_bytes, read_l2_access, read_dram,
            compute_time, memory_time, bps, hide, eff)

    def region_time_bound(self, graph: DataflowGraph) -> float:
        """A lower bound on what any schedule of ``graph`` costs under
        :meth:`kernel_time`: every tensor it reads from outside or
        declares as output crosses DRAM once, plus one launch.

        The compiler skips a partition candidate whose parts' bounds
        already reach the incumbent, so the bound must hold exactly in
        floats.  It is written in :meth:`_evaluate`'s shape: a kernel's
        ``dram_time`` divides ``dram_bytes`` by ``dram_bandwidth *
        _DRAM_EFFICIENCY * bw_frac``.  With no carried L2 state each
        input's compulsory bytes are its full bytes (its L2 accesses are
        at least one pass over the grid) and each store is the full
        output, so ``dram_bytes`` is at least the bytes counted here;
        ``bw_frac <= 1`` makes the divisor no larger; and the time is
        ``max(compute, memory) + launch`` with ``memory >= dram_time``.
        Each step is monotone in IEEE arithmetic, so ``time >= bound``
        holds float for float for a part compiled to one kernel, and
        summing parts in the same order keeps it.  A part compiled to
        several kernels pays a whole extra launch per kernel, far more
        than the rounding of splitting one division into several."""
        tensors = dict.fromkeys(graph.input_tensors + graph.output_tensors)
        nbytes = sum(graph.tensors[t].nbytes(graph.dims) for t in tensors)
        return (nbytes / (self.spec.dram_bandwidth * _DRAM_EFFICIENCY)
                + self.spec.kernel_launch_overhead)

    def kernel_counters(self, kernel: KernelSchedule, l2: L2State | None,
                        launch_overhead: float | None) -> PerfCounters:
        """What :meth:`program_cost` keeps of :meth:`kernel_cost`."""
        if kernel.meta.get("barrier"):
            return self._barrier_cost(kernel, l2, launch_overhead)[0]
        return self._counters(
            kernel, self._evaluate(kernel, None, l2, launch_overhead))

    def _counters(self, kernel: KernelSchedule,
                  n: KernelNumbers) -> PerfCounters:
        _, _, ftc, fsimt, _, _ = self._plan(kernel)
        l1_fill = n.load_bytes + n.store_bytes - n.l1_hit_bytes
        return PerfCounters(
            time_s=n.time_s, kernel_launches=1, dram_bytes=n.dram_bytes,
            l1_fill_bytes=l1_fill, l1_hit_bytes=n.l1_hit_bytes,
            l2_hit_bytes=max(0, l1_fill - n.dram_bytes), flops_tensor=ftc,
            flops_simt=fsimt, line_bytes=self.spec.line_bytes)

    def kernel_cost(self, kernel: KernelSchedule,
                    config: ScheduleConfig | None = None,
                    l2: L2State | None = None,
                    launch_overhead: float | None = None,
                    ) -> tuple[PerfCounters, KernelCostBreakdown]:
        if kernel.meta.get("barrier"):
            return self._barrier_cost(kernel, l2, launch_overhead)
        n = self._evaluate(kernel, config, l2, launch_overhead)
        counters = self._counters(kernel, n)
        breakdown = KernelCostBreakdown(
            grid=n.grid, load_bytes=n.load_bytes, store_bytes=n.store_bytes,
            dram_bytes=n.dram_bytes, flops_tensor=counters.flops_tensor,
            flops_simt=counters.flops_simt, compute_time=n.compute_time,
            memory_time=n.memory_time, time_s=n.time_s,
            l1_hit_bytes=n.l1_hit_bytes, l2_hit_bytes=counters.l2_hit_bytes,
            l1_hit_rate=(n.l1_hit_bytes / n.load_bytes
                         if n.load_bytes else 0.0),
            l2_hit_rate=(1.0 - n.dram_bytes / n.l2_access_bytes
                         if n.l2_access_bytes else 0.0),
            read_hit_rate=n.read_hit_rate,
            read_dram_bytes=n.read_dram_bytes,
            traffic=[TensorTraffic(row.tensor, row.full_bytes, pass_bytes,
                                   block_bytes, row.passes, dup)
                     for row, (pass_bytes, block_bytes, dup)
                     in zip(self._plan(kernel)[1].inputs, n.rows)],
        )
        return counters, breakdown

    def _barrier_cost(self, kernel: KernelSchedule, l2: L2State | None,
                      launch_overhead: float | None,
                      ) -> tuple[PerfCounters, KernelCostBreakdown]:
        """Layout kernels (reshape/transpose) are pure data movement."""
        spec = self.spec
        graph = kernel.exec_graph
        load = store = dram = 0
        for t in graph.input_tensors:
            nbytes = graph.tensors[t].nbytes(graph.dims)
            load += nbytes
            if l2 is not None and l2.is_resident(t):
                l2.touch(t)
            else:
                dram += nbytes
        for t in graph.output_tensors:
            nbytes = graph.tensors[t].nbytes(graph.dims)
            store += nbytes
            if l2 is not None:
                l2.insert(t, nbytes)
        dram += store
        overhead = (spec.kernel_launch_overhead
                    if launch_overhead is None else launch_overhead)
        time_s = dram / (spec.dram_bandwidth * _DRAM_EFFICIENCY) + overhead
        counters = PerfCounters(
            time_s=time_s, kernel_launches=1, dram_bytes=dram,
            l1_fill_bytes=load + store,
            l2_hit_bytes=max(0, load + store - dram),
            line_bytes=spec.line_bytes)
        breakdown = KernelCostBreakdown(
            grid=1, load_bytes=load, store_bytes=store, dram_bytes=dram,
            flops_tensor=0.0, flops_simt=0.0, compute_time=0.0,
            memory_time=time_s - overhead, time_s=time_s,
            l2_hit_bytes=max(0, load + store - dram),
            l2_hit_rate=(1.0 - dram / (load + store)) if load + store else 0.0,
            read_hit_rate=(1.0 - (dram - store) / load) if load else 1.0,
            read_dram_bytes=dram - store)
        return counters, breakdown

    def kernel_time(self, kernel: KernelSchedule,
                    config: ScheduleConfig | None = None) -> float:
        """Timing-only entry point used by the auto-tuner: the same
        arithmetic as :meth:`kernel_cost`, no result objects built.  The
        first call for a kernel prices one configuration; from the second
        on (its campaign is under way) the answer is looked up in a time
        vector priced once over the kernel's whole search space.  A shared
        kernel keeps its time at its own config (a confirmation) per GPU."""
        meta = kernel.meta
        if meta.get("barrier"):
            return self._barrier_cost(kernel, None, None)[0].time_s
        shared = kernel.characterised
        if shared is not None and config == kernel.config:
            if (t := shared.get((self.spec, config))) is None:
                t = shared[self.spec, config] = self._evaluate(
                    kernel, config, None, None).time_s
            return t
        factors = (meta.get("efficiency", 1.0),
                   meta.get("output_spill_factor", 1.0))
        memo = self._last_times
        if memo is None or memo[0] is not kernel or memo[1] != factors:
            if self._last_plan is None or self._last_plan[0] is not kernel:
                return self._evaluate(kernel, config, None, None).time_s
            memo = self._last_times = (kernel, factors,
                                       self._space_times(kernel))
        t = memo[2].get(config)
        if t is None:
            return self._evaluate(kernel, config, None, None).time_s
        return t

    def _space_times(self, kernel: KernelSchedule,
                     ) -> dict[ScheduleConfig, float]:
        """``{config: seconds}`` over the kernel's search space: one
        :meth:`_evaluate` of a configuration whose sizes are int64 arrays,
        an entry per point.  Empty unless every point names the same
        block dims in the same order and agrees on having a tile."""
        space = kernel.search_space
        tiles = [cfg.tile for cfg in space]
        # Per block entry: (every point's dim, every point's size).
        columns = [tuple(zip(*col)) for col in zip(*(c.block for c in space))]
        if (len({len(cfg.block) for cfg in space}) != 1
                or tiles.count(None) not in (0, len(tiles))
                or any(len(set(dims)) != 1 for dims, _sizes in columns)):
            return {}
        points = ScheduleConfig(
            tuple((dims[0], np.array(sizes, np.int64))
                  for dims, sizes in columns),
            None if tiles[0] is None else np.array(tiles, np.int64))
        times = self._evaluate(kernel, points, None, None, _ARRAYS).time_s
        return dict(zip(space, np.broadcast_to(times, len(space)).tolist()))

    # ------------------------------------------------------------------
    # Program cost
    # ------------------------------------------------------------------

    def program_cost(self, program: ProgramSchedule,
                     cuda_graphs: bool | None = None) -> PerfCounters:
        """Cost of running every kernel in order with L2 residency carried
        across kernels; a shared schedule keeps it (a hit is a copy)."""
        if cuda_graphs is None:
            cuda_graphs = bool(program.meta.get("cuda_graphs", False))
        memo, key = program.costed, (self.spec, cuda_graphs)
        if memo is not None and (hit := memo.get(key)) is not None:
            return copy.copy(hit)
        overhead = (self.spec.graph_launch_overhead if cuda_graphs
                    else self.spec.kernel_launch_overhead)
        # Eager frameworks add CPU-side dispatch cost on top of the raw
        # launch (PyTorch's per-op overhead); CUDA graphs eliminate both.
        if not cuda_graphs:
            overhead += float(program.meta.get("dispatch_overhead", 0.0))
        l2 = L2State(self.spec.l2_capacity)
        total = PerfCounters(line_bytes=self.spec.line_bytes)
        for kernel in program.kernels:
            total.add(self.kernel_counters(kernel, l2, overhead))
        if memo is not None:
            memo[key] = copy.copy(total)
        return total
