"""Space mappings: the directed edges of a Space-Mapping Graph (section 4.1).

Three kinds of mapping relate computational spaces (section 2):

* **One-to-One (O2O)** — element-wise correspondence; no geometric direction.
* **One-to-All (O2A)** — one source element is required by every destination
  element along the mapping's direction dimensions (broadcast / reuse).
* **All-to-One (A2O)** — every source element along the direction dimensions
  contributes to one destination element (reduction), with a combiner.

Direction dimensions give mappings their geometry; Table 3's slicing
legality rules are phrased entirely in terms of them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .flyweight import Flyweight


class MappingKind(Enum):
    ONE_TO_ONE = "O2O"
    ONE_TO_ALL = "O2A"
    ALL_TO_ONE = "A2O"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


O2O = MappingKind.ONE_TO_ONE
O2A = MappingKind.ONE_TO_ALL
A2O = MappingKind.ALL_TO_ONE


@dataclass(frozen=True)
class Mapping(Flyweight):
    """A directed edge ``src -> dst`` between two spaces of an SMG.

    Attributes:
        src: source space name.
        dst: destination space name.
        kind: O2O, O2A, or A2O.
        dims: geometric direction dimensions.  Empty exactly for O2O.
        reduce_kind: combiner for A2O mappings (``sum``/``max``/``min``/``mean``).
        input_index: for data->iteration edges, which operand slot this edge
            feeds (the executor needs operand order).
    """

    src: str
    dst: str
    kind: MappingKind
    dims: frozenset[str] = frozenset()
    reduce_kind: str | None = None
    input_index: int | None = None

    def __post_init__(self) -> None:
        if self.kind is O2O and self.dims:
            raise ValueError("One-to-One mappings carry no direction dims")
        if self.kind is not O2O and not self.dims:
            raise ValueError(f"{self.kind} mapping requires direction dims")
        if self.kind is A2O and self.reduce_kind is None:
            raise ValueError("All-to-One mapping requires a reduce_kind")
        if self.kind is not A2O and self.reduce_kind is not None:
            raise ValueError("only All-to-One mappings carry a reduce_kind")

    def along(self, dim: str) -> bool:
        """Whether this mapping's direction includes ``dim`` ("resides within
        the dimension" in the paper's Table 3 phrasing)."""
        return dim in self.dims

    def describe(self) -> str:
        if self.kind is O2O:
            return f"{self.src} -O2O-> {self.dst}"
        dims = ",".join(sorted(self.dims))
        extra = f":{self.reduce_kind}" if self.reduce_kind else ""
        return f"{self.src} -{self.kind.value}(dim={dims}){extra}-> {self.dst}"
