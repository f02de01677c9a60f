"""Computational spaces: the nodes of a Space-Mapping Graph (section 4.1).

The paper conceptualises two kinds of spaces:

* **Data spaces** abstract tensors (inputs, outputs, intermediates, weights).
* **Iteration spaces** model the nested-loop structure of an operator's
  computation.

Every space is a geometric object: it *extends* along a subset of the fused
space's dimensions and is a point ("-" placeholder in the paper's notation)
along the rest.  That geometry is what the slicers cut.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..ir.tensor import DTYPE_BYTES, DimRegistry
from .flyweight import Flyweight


@dataclass(frozen=True)
class Space(Flyweight):
    """Base class for computational spaces.

    Attributes:
        name: unique node name inside its SMG.
        dims: ordered dimensions along which this space extends.
    """

    name: str
    dims: tuple[str, ...]

    def has_dim(self, dim: str) -> bool:
        return dim in self.dims

    def volume(self, registry: DimRegistry) -> int:
        v = 1
        for d in self.dims:
            v *= registry.size(d)
        return v

    def render(self, all_dims: tuple[str, ...]) -> str:
        """Paper-style rendering with '-' placeholders, e.g. ``Query(M,-,K)``."""
        slots = [d if d in self.dims else "-" for d in all_dims]
        return f"{self.name}({','.join(slots)})"


@dataclass(frozen=True)
class DataSpace(Space):
    """A tensor viewed as a geometric space.

    ``role`` distinguishes how the memory planner (section 5.4) treats it:
    ``"input"`` and ``"output"`` spaces live in global memory; intermediates
    are candidates for on-chip placement.
    """

    dtype: str = "fp16"
    role: str = "intermediate"  # "input" | "output" | "intermediate"
    is_weight: bool = False

    def nbytes(self, registry: DimRegistry) -> int:
        return self.volume(registry) * DTYPE_BYTES[self.dtype]

    @property
    def is_graph_input(self) -> bool:
        return self.role == "input"

    @property
    def is_graph_output(self) -> bool:
        return self.role == "output"


@dataclass(frozen=True)
class IterationSpace(Space):
    """An operator's loop nest viewed as a geometric space.

    ``op_name`` links back to the IR operator whose computation this space
    models; the executor uses that link to evaluate the space numerically.
    """

    op_name: str = ""
    op_kind: str = ""


@dataclass
class SlicedExtent:
    """A dimension after slicing: the original extent cut into blocks.

    ``block`` elements per slice along ``dim``; the final slice may be
    ragged when ``block`` does not divide ``size``.
    """

    dim: str
    size: int
    block: int

    def __post_init__(self) -> None:
        if not (1 <= self.block <= self.size):
            raise ValueError(
                f"block {self.block} out of range for dim {self.dim!r} of size {self.size}"
            )

    @property
    def num_slices(self) -> int:
        return -(-self.size // self.block)

    def slice_bounds(self, index: int) -> tuple[int, int]:
        if not (0 <= index < self.num_slices):
            raise IndexError(f"slice index {index} out of range")
        lo = index * self.block
        return lo, min(lo + self.block, self.size)
