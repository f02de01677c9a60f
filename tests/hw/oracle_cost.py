"""The per-call cost derivation the simulator used before
:class:`~repro.hw.simulator.KernelTrafficPlan` existed, kept verbatim as
the test oracle.

Every ``kernel_cost`` call re-derives pass membership, per-tensor bytes, op
FLOPs and the ``TensorTraffic`` list from the graph before it looks at the
configuration.  The planned simulator must return ``==`` results — floats
included, no tolerance — and leave an ``L2State`` in the same order.  The
result classes are the live ones, so dataclass equality compares like with
like; everything else here is a frozen copy and shares no code with
``src/repro/hw/simulator.py``.
"""

from __future__ import annotations

import math

from repro.core.resources import BlockFootprint
from repro.core.schedule import KernelSchedule, ScheduleConfig
from repro.hw.counters import PerfCounters
from repro.hw.memory import L2State, streaming_hit_rate
from repro.hw.simulator import KernelCostBreakdown, TensorTraffic
from repro.hw.specs import GPUSpec
from repro.ir.ops import ceil_div
from repro.ir.tensor import DTYPE_BYTES

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


class OracleSimulator:
    """The parent commit's ``DeviceSimulator.kernel_cost``."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self._rc = spec.resource_config()
        # The tuner times all configurations of one kernel back to back,
        # so remembering the last kernel's footprint is enough.
        self._last_footprint: tuple[KernelSchedule, BlockFootprint] | None \
            = None

    # ------------------------------------------------------------------
    # Traffic accounting
    # ------------------------------------------------------------------

    def _block_bytes(self, kernel: KernelSchedule, tensor: str,
                     config: ScheduleConfig) -> int:
        """Bytes of ``tensor`` one interior SMG block stages over its whole
        lifetime (the temporal dimension is streamed, so it contributes its
        full extent; spatial dimensions contribute the block size)."""
        graph = kernel.exec_graph
        spec = graph.tensors[tensor]
        elems = 1
        for d in spec.dims:
            block = config.block_of(d)
            size = graph.dims.size(d)
            elems *= min(block, size) if block is not None else size
        return elems * DTYPE_BYTES[spec.dtype]

    def _pass_loads(self, kernel: KernelSchedule, tensor: str,
                    config: ScheduleConfig) -> tuple[int, int]:
        """(exact bytes of ``tensor`` the whole grid loads in one pass,
        blocks sharing one slice).

        Spatially sliced dimensions the tensor carries are partitioned
        exactly across their blocks — summing the edge blocks' remainders,
        not rounding them up — so indivisible grids are not over-counted.
        Spatial dimensions the tensor lacks re-fetch it once per block
        along them (the One-to-All duplication)."""
        graph = kernel.exec_graph
        spec = graph.tensors[tensor]
        elems = 1
        for d in spec.dims:
            elems *= graph.dims.size(d)
        tensor_dims = set(spec.dims)
        dup = 1
        for d in kernel.spatial_dims:
            if d in tensor_dims:
                continue
            block = config.block_of(d)
            if block is not None:
                dup *= ceil_div(kernel.smg.dim_size(d), block)
        return elems * dup * DTYPE_BYTES[spec.dtype], dup

    def _pass_inputs(self, kernel: KernelSchedule) -> tuple[set[str], set[str]]:
        """Input tensors read in pass 1 and (again) in pass 2."""
        graph = kernel.exec_graph
        inputs = set(graph.input_tensors)
        if kernel.plan is None:
            return inputs, set()
        p1 = {
            t for name in kernel.plan.tile_op_names
            for t in graph.op(name).inputs if t in inputs
        }
        p2 = {
            t for name in kernel.plan.pass2_op_names
            for t in graph.op(name).inputs if t in inputs
        }
        return p1, p2

    def input_traffic(self, kernel: KernelSchedule,
                      config: ScheduleConfig | None = None,
                      ) -> list[TensorTraffic]:
        """Structural per-input traffic (shared with the event simulator)."""
        cfg = config or kernel.effective_config()
        p1_inputs, p2_inputs = self._pass_inputs(kernel)
        # Manual kernels may stream their inputs more often than the
        # canonical two-pass structure (e.g. the Triton LayerNorm tutorial
        # makes separate mean / variance / normalise loops: three reads).
        read_multiplier = float(kernel.meta.get("input_read_multiplier", 1.0))
        graph = kernel.exec_graph
        out = []
        for tensor in sorted(p1_inputs | p2_inputs):
            pass_bytes, dup = self._pass_loads(kernel, tensor, cfg)
            passes = ((1 if tensor in p1_inputs else 0)
                      + (1 if tensor in p2_inputs else 0)) * read_multiplier
            out.append(TensorTraffic(
                tensor=tensor,
                full_bytes=graph.tensors[tensor].nbytes(graph.dims),
                pass_bytes=pass_bytes,
                block_bytes=self._block_bytes(kernel, tensor, cfg),
                passes=passes,
                dup=dup,
            ))
        return out

    def _op_flops(self, kernel: KernelSchedule) -> tuple[float, float]:
        """(tensor-core flops, weighted SIMT flops) including pass-2
        recomputation, weighted by the architecture's instruction table."""
        graph = kernel.exec_graph
        if kernel.plan is None:
            op_names = [op.name for op in graph.ops]
        else:
            op_names = list(kernel.plan.tile_op_names) + \
                list(kernel.plan.pass2_op_names)
        ftc = 0.0
        fsimt = 0.0
        for name in op_names:
            op = graph.op(name)
            f = op.flops(graph.dims)
            if op.is_contraction:
                ftc += f
            else:
                fsimt += f * self.spec.instruction_weight(op.kind)
        return ftc, fsimt

    # ------------------------------------------------------------------
    # Efficiency factors
    # ------------------------------------------------------------------

    def _gemm_efficiency(self, kernel: KernelSchedule,
                         config: ScheduleConfig) -> float:
        """Tensor-core utilisation as a function of block geometry: small
        blocks cannot feed the MMA pipelines (this is what makes block-size
        tuning matter)."""
        extents = [b for _d, b in config.block]
        if config.tile is not None:
            extents.append(config.tile)
        extents = sorted((e for e in extents if e > 1), reverse=True)
        first = extents[0] if extents else 1
        second = extents[1] if len(extents) > 1 else first
        shape_factor = min(1.0, first / 64.0) ** 0.5 * min(1.0, second / 32.0) ** 0.5
        manual = kernel.meta.get("efficiency", 1.0)
        return max(0.05, _GEMM_BASE_EFFICIENCY * shape_factor * manual)

    def _occupancy(self, kernel: KernelSchedule, config: ScheduleConfig,
                   ) -> tuple[int, float]:
        """(blocks per SM, memory-latency-hiding factor).

        The hiding factor is Little's law: covering the DRAM latency at
        full effective bandwidth needs ``bandwidth x latency`` bytes in
        flight; each resident block sustains ``mlp_per_block`` outstanding
        cache lines, so low occupancy leaves the memory pipeline
        under-fed and caps achievable bandwidth."""
        spec = self.spec
        memo = self._last_footprint
        if memo is None or memo[0] is not kernel:
            memo = self._last_footprint = (kernel, BlockFootprint(kernel))
        res = memo[1].estimate(config, self._rc)
        by_smem = max(1, spec.smem_per_sm // max(res.smem_bytes, 1))
        by_regs = max(1, spec.regfile_per_sm // max(res.reg_bytes, 1))
        bps = max(1, min(spec.max_blocks_per_sm, by_smem, by_regs))
        inflight = bps * spec.mlp_per_block * spec.line_bytes * spec.sm_count
        needed = spec.dram_bandwidth * _DRAM_EFFICIENCY * spec.dram_latency
        hide = min(1.0, inflight / max(needed, 1.0))
        return bps, hide

    # ------------------------------------------------------------------
    # Kernel cost
    # ------------------------------------------------------------------

    def kernel_cost(self, kernel: KernelSchedule,
                    config: ScheduleConfig | None = None,
                    l2: L2State | None = None,
                    launch_overhead: float | None = None,
                    ) -> tuple[PerfCounters, KernelCostBreakdown]:
        spec = self.spec
        cfg = config or kernel.effective_config()
        graph = kernel.exec_graph

        if kernel.meta.get("barrier"):
            return self._barrier_cost(kernel, l2, launch_overhead)

        grid = kernel.grid_size(cfg)
        traffic = self.input_traffic(kernel, cfg)

        # --- L1/shared tier: intra-block re-reads ----------------------
        # A block stages each operand slice once per pass; re-reads in
        # later passes (pass-2 epilogues, extra manual sweeps) hit L1 when
        # the block's staged footprint still fits.
        block_fp = sum(t.block_bytes for t in traffic)
        block_fp += sum(self._block_bytes(kernel, t, cfg)
                        for t in graph.output_tensors)
        l1_hit_frac = streaming_hit_rate(block_fp, spec.l1_capacity)

        # --- L2 tier: cross-block re-reads -----------------------------
        # The kernel's streamed working set competing for L2: every
        # distinct byte it moves (inputs and outputs), each capped at the
        # capacity.  The reuse hit rate decays as the set overflows, with
        # a rasterisation floor: neighbouring blocks walk the same slices,
        # so at most ``_L2_SPILL_REUSE`` of over-capacity re-reads miss.
        stream_set = sum(min(t.full_bytes, spec.l2_capacity)
                         for t in traffic)
        stream_set += sum(
            min(graph.tensors[t].nbytes(graph.dims), spec.l2_capacity)
            for t in graph.output_tensors)
        l2_hit_raw = streaming_hit_rate(stream_set, spec.l2_capacity)
        reuse_miss_frac = (1.0 - l2_hit_raw) * _L2_SPILL_REUSE

        load_bytes = 0
        dram_bytes = 0
        l1_hit_bytes = 0
        l2_access_bytes = 0
        read_l2_access = 0
        for t in traffic:
            total_loads = t.load_bytes
            load_bytes += total_loads
            # Only the re-read passes can hit in L1.
            l1_hits = int((total_loads - t.pass_bytes) * l1_hit_frac) \
                if total_loads > t.pass_bytes else 0
            l1_hit_bytes += l1_hits
            l2_access = total_loads - l1_hits
            l2_access_bytes += l2_access
            read_l2_access += l2_access
            if l2 is not None and l2.is_resident(t.tensor):
                # Still resident from a producer kernel: no DRAM at all.
                l2.touch(t.tensor)
                tensor_dram = 0
            else:
                compulsory = min(t.full_bytes, l2_access)
                reuse = l2_access - compulsory
                tensor_dram = compulsory + int(reuse * reuse_miss_frac)
            dram_bytes += tensor_dram
        read_dram = dram_bytes

        spill = kernel.meta.get("output_spill_factor", 1.0)
        store_bytes = 0
        for tensor in graph.output_tensors:
            full = graph.tensors[tensor].nbytes(graph.dims)
            store_bytes += int(full * spill)
            if spill > 1.0:
                # Re-read of spilled partial outputs (FlashAttention-1's
                # outer K/V loop rewrites O in device memory).  The
                # partial output was just written, so the re-read goes
                # through the same residency model as every other read:
                # it hits L2 unless the kernel's streamed working set
                # overflows the cache.  No rasterisation floor — each
                # block re-reads its *own* slice a full outer iteration
                # later, so neighbours share nothing.
                re_read = int(full * (spill - 1.0))
                load_bytes += re_read
                l2_access_bytes += re_read
                dram_bytes += int(re_read * (1.0 - l2_hit_raw))
        dram_bytes += store_bytes
        l2_access_bytes += store_bytes

        if l2 is not None:
            for tensor in graph.output_tensors:
                l2.insert(tensor, graph.tensors[tensor].nbytes(graph.dims))

        ftc, fsimt = self._op_flops(kernel)

        # --- timing -----------------------------------------------------
        eff = self._gemm_efficiency(kernel, cfg)
        manual = kernel.meta.get("efficiency", 1.0)
        tc_time = ftc / (spec.tensor_flops * eff) if ftc else 0.0
        simt_time = (fsimt / (spec.simt_flops * _SIMT_EFFICIENCY * manual)
                     if fsimt else 0.0)
        compute_raw = tc_time + simt_time

        bps, hide = self._occupancy(kernel, cfg)
        if grid >= spec.sm_count:
            waves = math.ceil(grid / spec.sm_count)
            quant = waves / (grid / spec.sm_count)
            compute_time = compute_raw * quant
        else:
            par_frac = grid / spec.sm_count
            compute_time = compute_raw / max(par_frac, 1e-6)

        bw_frac = min(1.0, grid / (spec.sm_count * 0.5)) * hide
        dram_time = dram_bytes / (spec.dram_bandwidth * _DRAM_EFFICIENCY
                                  * max(bw_frac, 1e-6))
        l2_time = l2_access_bytes / (spec.l2_bandwidth * max(bw_frac, 1e-6))
        l1_frac = min(1.0, grid / spec.sm_count)
        l1_time = (load_bytes + store_bytes) / (spec.l1_bandwidth
                                                * max(l1_frac, 1e-6))
        overhead = (spec.kernel_launch_overhead
                    if launch_overhead is None else launch_overhead)
        exec_time = max(compute_time, dram_time, l2_time, l1_time)
        time_s = exec_time + overhead

        l1_fill = load_bytes + store_bytes - l1_hit_bytes
        l2_hit_bytes = max(0, l1_fill - dram_bytes)
        counters = PerfCounters(
            time_s=time_s,
            kernel_launches=1,
            dram_bytes=dram_bytes,
            l1_fill_bytes=l1_fill,
            l1_hit_bytes=l1_hit_bytes,
            l2_hit_bytes=l2_hit_bytes,
            flops_tensor=ftc,
            flops_simt=fsimt,
            line_bytes=spec.line_bytes,
        )
        breakdown = KernelCostBreakdown(
            grid=grid, load_bytes=load_bytes, store_bytes=store_bytes,
            dram_bytes=dram_bytes, flops_tensor=ftc, flops_simt=fsimt,
            compute_time=compute_time,
            memory_time=max(dram_time, l2_time, l1_time),
            time_s=time_s,
            l1_hit_bytes=l1_hit_bytes,
            l2_hit_bytes=l2_hit_bytes,
            l1_hit_rate=l1_hit_bytes / load_bytes if load_bytes else 0.0,
            l2_hit_rate=(1.0 - dram_bytes / l2_access_bytes
                         if l2_access_bytes else 0.0),
            read_hit_rate=(1.0 - read_dram / max(read_l2_access, 1)
                           if read_l2_access else 1.0),
            read_dram_bytes=read_dram,
            traffic=traffic,
        )
        return counters, breakdown

    def _barrier_cost(self, kernel: KernelSchedule, l2: L2State | None,
                      launch_overhead: float | None,
                      ) -> tuple[PerfCounters, KernelCostBreakdown]:
        """Layout kernels (reshape/transpose) are pure data movement."""
        spec = self.spec
        graph = kernel.exec_graph
        load = sum(graph.tensors[t].nbytes(graph.dims)
                   for t in graph.input_tensors)
        store = sum(graph.tensors[t].nbytes(graph.dims)
                    for t in graph.output_tensors)
        dram = store
        for t in graph.input_tensors:
            nbytes = graph.tensors[t].nbytes(graph.dims)
            if l2 is not None and l2.is_resident(t):
                l2.touch(t)
            else:
                dram += nbytes
        if l2 is not None:
            for t in graph.output_tensors:
                l2.insert(t, graph.tensors[t].nbytes(graph.dims))
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
