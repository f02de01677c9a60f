"""Performance counters accumulated by the simulator (section 6.3's metrics).

The memory/cache analysis of Figure 15 reports L1 miss counts, L2 miss
counts, and device-memory data movement; these counters carry exactly those
quantities plus the timing totals the speedup figures need and the per-tier
hit bytes of the cache-hierarchy model.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class PerfCounters:
    """Aggregate performance counters for one simulated execution."""

    time_s: float = 0.0
    kernel_launches: int = 0
    #: Bytes moved between device memory and L2 (the "data movement" of
    #: Figure 15's right panel).
    dram_bytes: int = 0
    #: Bytes the SMs pulled past the L1/shared level into L2 (global
    #: loads+stores minus the loads served out of L1).
    l1_fill_bytes: int = 0
    #: Bytes served out of L1/shared without reaching L2 (intra-block
    #: pass-2 re-reads that stayed resident).
    l1_hit_bytes: int = 0
    #: Bytes served out of L2 without reaching DRAM.
    l2_hit_bytes: int = 0
    flops_tensor: float = 0.0
    flops_simt: float = 0.0

    line_bytes: int = 128

    @property
    def l1_miss_count(self) -> int:
        return self.l1_fill_bytes // self.line_bytes

    @property
    def l2_miss_count(self) -> int:
        return self.dram_bytes // self.line_bytes

    @property
    def l1_hit_rate(self) -> float:
        """Fraction of global accesses served at the L1/shared level."""
        total = self.l1_fill_bytes + self.l1_hit_bytes
        return self.l1_hit_bytes / total if total else 0.0

    @property
    def l2_hit_rate(self) -> float:
        """Fraction of L2 accesses served without going to DRAM."""
        return self.l2_hit_bytes / self.l1_fill_bytes \
            if self.l1_fill_bytes else 0.0

    def add(self, other: "PerfCounters") -> "PerfCounters":
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        return self

    def scaled(self, factor: int) -> "PerfCounters":
        """Counters for ``factor`` repetitions (repeated subprograms)."""
        return PerfCounters(*(getattr(self, name) * factor
                              for name in _SUMMED), self.line_bytes)

    def summary(self) -> str:
        return (f"time={self.time_s*1e3:.3f}ms launches={self.kernel_launches} "
                f"dram={self.dram_bytes/1e6:.2f}MB "
                f"l1_miss={self.l1_miss_count} l2_miss={self.l2_miss_count} "
                f"l1_hit={self.l1_hit_rate:.0%} l2_hit={self.l2_hit_rate:.0%}")


#: Every field but ``line_bytes``, in declaration order: what adds up.
_SUMMED = PerfCounters.__slots__[:-1]
