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
    KernelNumbers,
    KernelTrafficPlan,
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

    # -- hierarchy replay --------------------------------------------------

    def _replay_hierarchy(self, plan: KernelTrafficPlan, n: KernelNumbers,
                          concurrency: int,
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
        grid, counts = n.grid, n.counts
        reads = [max(1, round(row.passes)) for row in plan.inputs]
        if sum(reads) * grid > _REPLAY_TOUCH_CAP:
            return None
        max_passes = max(reads, default=1)

        def granule(prefix: str, row) -> tuple[str, tuple[int, ...]]:
            """A tensor's granule key: its name and which spatial
            coordinates tell its slices apart."""
            return prefix + row.tensor, tuple(
                i for i in range(len(counts)) if i not in row.lacking)

        in_plans = [(*granule("", row), passes, block_bytes)
                    for row, passes, (_pass, block_bytes, _dup)
                    in zip(plan.inputs, reads, n.rows)]
        out_plans = [(*granule("store:", row), block_bytes)
                     for row, block_bytes in zip(plan.outputs, n.out_blocks)]

        def block_coords(blk: int) -> tuple[int, ...]:
            coords = []
            for count in reversed(counts):
                coords.append(blk % count)
                blk //= count
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
                    for tensor, axes, passes, nbytes in in_plans:
                        if p >= passes:
                            continue
                        acc += nbytes
                        key = (tensor,) + tuple(c[i] for i in axes)
                        if not cache.access(key, nbytes):
                            miss += nbytes
                    if p == max_passes - 1:
                        for tensor, axes, nbytes in out_plans:
                            cache.access(
                                (tensor,) + tuple(c[i] for i in axes), nbytes)
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
        # One evaluation of the analytical core: the event loop replays
        # the traffic it computed and times it its own way.
        n = self._analytic._evaluate(kernel, config, None, launch_overhead)
        _, plan, ftc, fsimt, _, _ = self._analytic._plan(kernel)
        grid = n.grid
        # Mirror the analytical engine rates exactly: the gemm efficiency
        # already folds in the manual factor, and the SIMT rate must too —
        # omitting it skewed rankings for hand-tuned-library kernels.
        manual = kernel.meta.get("efficiency", 1.0)
        sm_tc_rate = spec.tensor_flops / spec.sm_count * n.gemm_efficiency
        sm_simt_rate = (spec.simt_flops / spec.sm_count
                        * _SIMT_EFFICIENCY * manual)
        compute_s = (ftc / grid) / sm_tc_rate + (fsimt / grid) / sm_simt_rate
        concurrency = spec.sm_count * n.blocks_per_sm
        # The same Little's-law constraint as the analytical model: low
        # occupancy cannot keep enough lines in flight to reach peak DRAM
        # bandwidth (see DeviceSimulator._occupancy).
        bw = spec.dram_bandwidth * _DRAM_EFFICIENCY * n.hide

        # Store-side DRAM (stores + spilled-output re-reads) has no
        # cross-block reuse to replay; spread it uniformly over blocks.
        rest_dram = n.dram_bytes - n.read_dram_bytes
        rest_per_block = rest_dram / grid

        replay = self._replay_hierarchy(plan, n, concurrency)
        # Input-read loads: what reached L2 plus what L1 absorbed.
        read_access_total = n.read_l2_access + n.l1_hit_bytes
        # L2-level traffic not covered by the read replay: stores plus
        # spilled-output re-reads, uniform over blocks.
        rest_l2_per_block = (n.load_bytes + n.store_bytes
                             - read_access_total) / grid
        if replay is None:
            read_dram = n.read_dram_bytes
            share = read_dram / grid
            access_share = read_access_total / grid
            wave_access = wave_reads = None
            read_hit = n.read_hit_rate
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
            dram_scale = (n.read_dram_bytes / read_dram
                          if read_dram else 1.0)
            l2_scale = n.read_l2_access / read_access if read_access else 1.0

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
    sweep (``tests/hw/test_event_sim.py::TestCalibration``) asserts their
    delta stays small."""
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
