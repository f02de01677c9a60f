"""Schedule data model: what the auto-scheduler produces (sections 4-5).

A :class:`KernelSchedule` captures one fused GPU kernel: the SMG it covers,
the spatially sliced dimensions (block grid), the optional temporal
aggregation plan (intra-block loop), the memory-level assignment of every
tensor, and the block-size search space handed to the auto-tuner.

A :class:`ProgramSchedule` strings kernels together; tensors crossing
kernel boundaries live in global memory (section 5.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.graph import DataflowGraph
from ..ir.ops import ceil_div
from .flyweight import Flyweight
from .smg import SMG
from .temporal_slicer import AggregationPlan


@dataclass(frozen=True)
class ScheduleConfig(Flyweight):
    """One point in a kernel's tuning space.

    Attributes:
        block: block size per spatially sliced dimension.
        tile: intra-block tile size along the temporal dimension (None when
            the kernel is not temporally sliced).
    """

    block: tuple[tuple[str, int], ...]
    tile: int | None = None

    def block_of(self, dim: str) -> int | None:
        for d, b in self.block:
            if d == dim:
                return b
        return None

    def as_dict(self) -> dict[str, int]:
        return dict(self.block)

    def describe(self) -> str:
        blocks = ",".join(f"{d}={b}" for d, b in self.block)
        tile = f",tile={self.tile}" if self.tile is not None else ""
        return f"cfg({blocks}{tile})"


@dataclass
class KernelSchedule:
    """A fused kernel: one SMG scheduled onto the GPU execution model."""

    name: str
    smg: SMG
    spatial_dims: tuple[str, ...]
    plan: AggregationPlan | None = None
    config: ScheduleConfig | None = None
    search_space: list[ScheduleConfig] = field(default_factory=list)
    memory_levels: dict[str, str] = field(default_factory=dict)
    #: Free-form annotations (origin: "spacefusion", "flashattention", ...)
    meta: dict = field(default_factory=dict)
    #: ``{GPUSpec: cost-model terms}`` of a kernel published read-only by
    #: :func:`~repro.core.serialize.shared_schedule`, filled by the first
    #: simulator that plans it and dropped with it; ``None`` (a kernel of a
    #: compile in progress, or any copy) keeps the simulator's last-seen memo.
    characterised: dict | None = field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "characterised": None}

    @property
    def exec_graph(self) -> DataflowGraph:
        """The graph the executor interprets (rewritten when UTA applies)."""
        if self.plan is not None:
            return self.plan.graph
        assert self.smg.graph is not None
        return self.smg.graph

    @property
    def temporal_dim(self) -> str | None:
        return self.plan.dim if self.plan is not None else None

    def effective_config(self) -> ScheduleConfig:
        if self.config is not None:
            return self.config
        if self.search_space:
            return self.search_space[0]
        raise ValueError(f"kernel {self.name!r} has no configuration")

    def grid_size(self, config: ScheduleConfig | None = None) -> int:
        """Number of SMG blocks (thread blocks) the kernel launches."""
        cfg = config or self.effective_config()
        grid = 1
        for dim in self.spatial_dims:
            block = cfg.block_of(dim)
            if block is None:
                raise ValueError(f"config lacks block size for dim {dim!r}")
            grid *= ceil_div(self.smg.dim_size(dim), block)
        return grid

    def num_intra_blocks(self, config: ScheduleConfig | None = None) -> int:
        cfg = config or self.effective_config()
        if self.plan is None or cfg.tile is None:
            return 1
        return ceil_div(self.smg.dim_size(self.plan.dim), cfg.tile)

    def sliced_extent(self, dim: str, config: ScheduleConfig | None = None) -> int:
        """Per-block extent of ``dim`` under the (chosen) config."""
        cfg = config or self.effective_config()
        block = cfg.block_of(dim)
        if block is not None:
            return min(block, self.smg.dim_size(dim))
        if self.plan is not None and dim == self.plan.dim and cfg.tile is not None:
            return min(cfg.tile, self.smg.dim_size(dim))
        return self.smg.dim_size(dim)

    def tensor_block_elems(self, tensor: str,
                           config: ScheduleConfig | None = None) -> int:
        """Elements of ``tensor`` visible to a single SMG block/intra-block."""
        spec = self.exec_graph.tensors[tensor]
        n = 1
        for d in spec.dims:
            n *= self.sliced_extent(d, config)
        return n

    def describe(self) -> str:
        parts = [f"kernel {self.name}: spatial={list(self.spatial_dims)}"]
        if self.plan is not None:
            mode = "UTA" if self.plan.uses_uta else "SA"
            parts.append(f"temporal={self.plan.dim}({mode})")
        if self.config is not None:
            parts.append(self.config.describe())
        parts.append(f"{len(self.search_space)} cfgs")
        return " ".join(parts)


@dataclass
class ProgramSchedule:
    """An ordered sequence of kernels implementing one tensor program."""

    name: str
    kernels: list[KernelSchedule] = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    #: ``{(GPUSpec, cuda_graphs): PerfCounters}`` of a schedule published
    #: like :attr:`KernelSchedule.characterised`, filled by ``program_cost``.
    costed: dict | None = field(
        default=None, init=False, repr=False, compare=False)

    def __getstate__(self) -> dict:
        return {**self.__dict__, "costed": None}

    def add(self, kernel: KernelSchedule) -> KernelSchedule:
        self.kernels.append(kernel)
        return kernel

    @property
    def num_kernels(self) -> int:
        return len(self.kernels)

    def fused_op_counts(self) -> list[int]:
        """Ops per kernel — a quick fusion-quality fingerprint."""
        return [len(k.exec_graph.ops) for k in self.kernels]

    def describe(self) -> str:
        lines = [f"program {self.name}: {self.num_kernels} kernels"]
        lines.extend("  " + k.describe() for k in self.kernels)
        return "\n".join(lines)
