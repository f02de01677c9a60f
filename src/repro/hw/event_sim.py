"""Event-driven kernel execution simulator.

An independent second opinion on kernel timing: instead of the closed-form
wave arithmetic of :mod:`repro.hw.simulator`, this model *schedules the
blocks* — every SMG block is a task demanding compute seconds on an SM slot
and bytes on the shared DRAM channel, and a discrete-event loop with
processor-sharing on the memory channel plays the execution out.

It captures effects the closed form approximates: ragged final waves,
occupancy-limited block admission, and compute/memory overlap that varies
over the kernel's lifetime.  Since the hierarchy upgrade it also *replays
the cache hierarchy*: each block's slice of each input tensor is a granule
touched in an LRU sized like the L2, so cross-block reuse (and its collapse
when the working set overflows) emerges from the block schedule instead of
being copied from the analytical model.  The cross-check tests require the
two models to agree on magnitude, on the *ranking* of configurations — the
quantity the auto-tuner actually consumes — and on the read hit rate the
hierarchy produces.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.schedule import KernelSchedule, ScheduleConfig
from .memory import GranuleCache
from .simulator import (
    _DRAM_EFFICIENCY,
    _SIMT_EFFICIENCY,
    DeviceSimulator,
)
from .specs import GPUSpec

#: Above this many granule touches the block-level replay is skipped and
#: the analytical hierarchy totals are spread uniformly over the waves.
_REPLAY_TOUCH_CAP = 250_000


@dataclass(frozen=True)
class EventSimResult:
    """Outcome of one event-driven kernel simulation."""

    time_s: float
    waves: int
    concurrent_blocks: int
    per_block_compute_s: float
    per_block_dram_bytes: float
    #: Total DRAM bytes the replay moved (reads + stores).
    dram_bytes: int = 0
    #: Fraction of input-read bytes served above DRAM in the replay — the
    #: quantity cross-validated against the analytical model's
    #: ``read_hit_rate``.
    read_hit_rate: float = 0.0
    #: Whether the granule replay ran (False: analytical totals reused).
    replayed: bool = False


class EventDrivenSimulator:
    """Block-level discrete-event kernel timing with hierarchy replay."""

    def __init__(self, spec: GPUSpec) -> None:
        self.spec = spec
        self._analytic = DeviceSimulator(spec)

    # -- per-block demands ------------------------------------------------

    def _block_demands(self, kernel: KernelSchedule, cfg: ScheduleConfig,
                       ) -> tuple[float, int]:
        """(compute seconds on one SM, concurrency limit)."""
        spec = self.spec
        grid = kernel.grid_size(cfg)
        graph = kernel.exec_graph

        ftc = fsimt = 0.0
        op_names = ([op.name for op in graph.ops] if kernel.plan is None
                    else list(kernel.plan.tile_op_names)
                    + list(kernel.plan.pass2_op_names))
        for name in op_names:
            op = graph.op(name)
            f = op.flops(graph.dims)
            if op.is_contraction:
                ftc += f
            else:
                fsimt += f * spec.instruction_weight(op.kind)

        # Mirror the analytical engine rates exactly: the gemm efficiency
        # already folds in the manual factor, and the SIMT rate must too —
        # omitting it skewed rankings for hand-tuned-library kernels.
        manual = kernel.meta.get("efficiency", 1.0)
        eff = self._analytic._gemm_efficiency(kernel, cfg)
        sm_tc_rate = spec.tensor_flops / spec.sm_count * eff
        sm_simt_rate = (spec.simt_flops / spec.sm_count
                        * _SIMT_EFFICIENCY * manual)
        compute_per_block = (ftc / grid) / sm_tc_rate \
            + (fsimt / grid) / sm_simt_rate

        bps, _hide = self._analytic._occupancy(kernel, cfg)
        concurrency = spec.sm_count * bps
        return compute_per_block, concurrency

    # -- hierarchy replay --------------------------------------------------

    def _replay_hierarchy(self, kernel: KernelSchedule, cfg: ScheduleConfig,
                          traffic, grid: int, concurrency: int,
                          ) -> tuple[list[int], list[int], int, int] | None:
        """Walk the block schedule through a granule LRU.

        Concurrently resident blocks interleave their memory traffic, so
        within a wave the replay is *pass-major*: every active block's
        pass-p touches happen before any block's pass-(p+1) touches —
        the reuse distance of a re-read is the wave's whole working set,
        not just the block's own slice.  Output stores are inserted during
        the last pass and compete for capacity like real write-allocate
        traffic.

        Returns per-wave (access bytes, DRAM bytes) for input reads plus
        the totals, or None when the replay would be too large.
        """
        touches = sum(max(1, round(t.passes)) for t in traffic) * grid
        if touches > _REPLAY_TOUCH_CAP:
            return None

        spatial = kernel.spatial_dims
        counts = []
        for d in spatial:
            block = cfg.block_of(d)
            counts.append(-(-kernel.smg.dim_size(d) // block))
        # Per-tensor: which spatial coordinates identify its granule.
        graph = kernel.exec_graph
        plans = []
        max_passes = 1
        for t in traffic:
            tdims = set(graph.tensors[t.tensor].dims)
            axes = tuple(i for i, d in enumerate(spatial) if d in tdims)
            passes = max(1, round(t.passes))
            max_passes = max(max_passes, passes)
            plans.append((t, axes, passes))
        out_plans = []
        for tensor in graph.output_tensors:
            tdims = set(graph.tensors[tensor].dims)
            axes = tuple(i for i, d in enumerate(spatial) if d in tdims)
            out_plans.append((tensor, axes,
                              self._analytic._block_bytes(kernel, tensor,
                                                          cfg)))

        def block_coords(blk: int) -> tuple[int, ...]:
            coords = []
            for n in reversed(counts):
                coords.append(blk % n)
                blk //= n
            return tuple(reversed(coords))

        cache = GranuleCache(self.spec.l2_capacity)
        wave_access: list[int] = []
        wave_dram: list[int] = []
        total_access = 0
        total_dram = 0
        b = 0
        while b < grid:
            active = min(grid - b, concurrency)
            coords = [block_coords(blk) for blk in range(b, b + active)]
            acc = 0
            miss = 0
            for p in range(max_passes):
                for c in coords:
                    for t, axes, passes in plans:
                        if p >= passes:
                            continue
                        key = (t.tensor,) + tuple(c[i] for i in axes)
                        acc += t.block_bytes
                        if not cache.access(key, t.block_bytes):
                            miss += t.block_bytes
                    if p == max_passes - 1:
                        for tensor, axes, nbytes in out_plans:
                            key = ("store:" + tensor,) \
                                + tuple(c[i] for i in axes)
                            cache.access(key, nbytes)
            wave_access.append(acc)
            wave_dram.append(miss)
            total_access += acc
            total_dram += miss
            b += active
        return wave_access, wave_dram, total_access, total_dram

    # -- the event loop ----------------------------------------------------

    def simulate_kernel(self, kernel: KernelSchedule,
                        config: ScheduleConfig | None = None,
                        launch_overhead: float | None = None,
                        ) -> EventSimResult:
        if kernel.meta.get("barrier"):
            counters, _ = self._analytic.kernel_cost(
                kernel, launch_overhead=launch_overhead)
            return EventSimResult(counters.time_s, 1, 1, 0.0, 0.0,
                                  dram_bytes=counters.dram_bytes)

        spec = self.spec
        cfg = config or kernel.effective_config()
        grid = kernel.grid_size(cfg)
        compute_s, concurrency = self._block_demands(kernel, cfg)
        # The same Little's-law constraint as the analytical model: low
        # occupancy cannot keep enough lines in flight to reach peak DRAM
        # bandwidth (see DeviceSimulator._occupancy).
        _bps, hide = self._analytic._occupancy(kernel, cfg)
        bw = spec.dram_bandwidth * _DRAM_EFFICIENCY * hide

        counters, breakdown = self._analytic.kernel_cost(kernel, cfg)
        # Store-side DRAM (stores + spilled-output re-reads) has no
        # cross-block reuse to replay; spread it uniformly over blocks.
        rest_dram = breakdown.dram_bytes - breakdown.read_dram_bytes
        rest_per_block = rest_dram / grid

        replay = self._replay_hierarchy(kernel, cfg, breakdown.traffic,
                                        grid, concurrency)
        read_access_total = sum(t.load_bytes for t in breakdown.traffic)
        # L2-level traffic not covered by the read replay: stores plus
        # spilled-output re-reads, uniform over blocks.
        rest_l2_per_block = (breakdown.load_bytes + breakdown.store_bytes
                             - read_access_total) / grid
        if replay is None:
            read_dram = breakdown.read_dram_bytes
            share = read_dram / grid
            access_share = read_access_total / grid
            wave_access = wave_reads = None
            read_hit = breakdown.read_hit_rate
            replayed = False
            dram_scale = l2_scale = 1.0
        else:
            wave_access, wave_reads, read_access, read_dram = replay
            read_hit = (1.0 - read_dram / read_access) if read_access else 1.0
            replayed = True
            # The replay's hit rate is its own (that is what the
            # cross-validation compares); for the *timing* channel the
            # per-wave distribution is normalised to the analytical
            # hierarchy totals, which additionally carry the L1-absorbed
            # loads and the rasterisation reuse misses the granule LRU
            # does not model.
            dram_scale = (breakdown.read_dram_bytes / read_dram
                          if read_dram else 1.0)
            l2_scale = ((read_access_total - breakdown.l1_hit_bytes)
                        / read_access if read_access else 1.0)

        # Blocks admitted up to the concurrency limit; the DRAM channel is
        # processor-shared among *active* blocks, so a wave's service time
        # is max(compute, wave bytes / bw).  We advance wave by wave: all
        # concurrently resident blocks finish together (homogeneous
        # demands), which is exact for uniform blocks and conservative for
        # ragged tails.  Early waves carry the compulsory misses; once the
        # working set is cache-resident later waves stream from L2.
        remaining = grid
        t = 0.0
        waves = 0
        total_dram = 0
        while remaining > 0:
            active = min(remaining, concurrency)
            if replay is None:
                wave_read_dram = share * active
                wave_l2 = access_share * active
            else:
                wave_read_dram = wave_reads[waves] * dram_scale
                wave_l2 = wave_access[waves] * l2_scale
            wave_dram = wave_read_dram + rest_per_block * active
            wave_l2 += rest_l2_per_block * active
            total_dram += int(wave_dram)
            # A thin wave cannot issue enough requests to saturate the
            # memory system (the analytical model's bandwidth fraction).
            sat = min(1.0, active / (spec.sm_count * 0.5))
            mem_time = wave_dram / (bw * sat)
            l2_time = wave_l2 / (spec.l2_bandwidth * sat)
            wave_time = max(compute_s, mem_time, l2_time)
            # Fewer blocks than SMs leave compute lanes idle but cannot
            # finish faster than one block's own critical path.
            t += wave_time
            remaining -= active
            waves += 1

        t += (spec.kernel_launch_overhead
              if launch_overhead is None else launch_overhead)
        return EventSimResult(
            time_s=t, waves=waves,
            concurrent_blocks=min(grid, concurrency),
            per_block_compute_s=compute_s,
            per_block_dram_bytes=(read_dram + rest_dram) / grid,
            dram_bytes=total_dram,
            read_hit_rate=read_hit,
            replayed=replayed)

    def rank_configs(self, kernel: KernelSchedule,
                     launch_overhead: float | None = None,
                     ) -> list[tuple[ScheduleConfig, float]]:
        """Configurations sorted by event-simulated time."""
        timings = [
            (cfg,
             self.simulate_kernel(kernel, cfg,
                                  launch_overhead=launch_overhead).time_s)
            for cfg in kernel.search_space
        ]
        timings.sort(key=lambda pair: pair[1])
        return timings


def cross_check(kernel: KernelSchedule, spec: GPUSpec,
                config: ScheduleConfig | None = None) -> tuple[float, float]:
    """(analytical seconds, event-driven seconds) for one kernel."""
    analytic = DeviceSimulator(spec).kernel_time(kernel, config)
    event = EventDrivenSimulator(spec).simulate_kernel(kernel, config).time_s
    return analytic, event


def cross_check_hierarchy(kernel: KernelSchedule, spec: GPUSpec,
                          config: ScheduleConfig | None = None) -> dict:
    """Hit-rate-level agreement between the two models for one kernel.

    Returns analytic/event times plus both read hit rates; the calibration
    smoke (``repro bench-costmodel``) asserts their delta stays small."""
    _counters, breakdown = DeviceSimulator(spec).kernel_cost(kernel, config)
    ev = EventDrivenSimulator(spec).simulate_kernel(kernel, config)
    return {
        "analytic_s": breakdown.time_s,
        "event_s": ev.time_s,
        "analytic_read_hit_rate": breakdown.read_hit_rate,
        "event_read_hit_rate": ev.read_hit_rate,
        "hit_rate_delta": abs(breakdown.read_hit_rate - ev.read_hit_rate),
        "replayed": ev.replayed,
    }
