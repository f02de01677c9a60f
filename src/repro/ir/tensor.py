"""Tensor and dimension specifications for the tensor-program IR.

Tensors in this IR are *symbolic*: a :class:`TensorSpec` names its axes by
dimension identifiers that live in a per-graph :class:`DimRegistry`.  Naming
axes (rather than only sizing them) is what later lets the SMG layer reason
about which spaces extend along which dimensions, which is the heart of the
paper's Space-Mapping Graph abstraction (SpaceFusion, EuroSys '25, section 4.1).
"""

from __future__ import annotations

from dataclasses import dataclass


#: Bytes per element for the supported datatypes.  The paper evaluates in
#: half precision (FP16) throughout; FP32 is kept for reference kernels.
DTYPE_BYTES = {
    "fp16": 2,
    "bf16": 2,
    "fp32": 4,
    "int32": 4,
    "bool": 1,
}


class DimRegistry:
    """Registry of named dimensions and their extents for one graph.

    A dimension is a (name, size) pair.  Two tensor axes that carry the same
    dimension name index the *same* geometric direction of the fused
    computational space.  Registering the same name twice with a different
    size is an error: dimension identity implies extent identity.
    """

    def __init__(self) -> None:
        self._sizes: dict[str, int] = {}

    def define(self, name: str, size: int) -> str:
        """Register dimension ``name`` with ``size`` elements and return it."""
        if size <= 0:
            raise ValueError(f"dimension {name!r} must have positive size, got {size}")
        existing = self._sizes.get(name)
        if existing is not None and existing != size:
            raise ValueError(
                f"dimension {name!r} redefined with size {size}, previously {existing}"
            )
        self._sizes[name] = size
        return name

    def size(self, name: str) -> int:
        try:
            return self._sizes[name]
        except KeyError:
            raise KeyError(f"unknown dimension {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._sizes

    def names(self) -> tuple[str, ...]:
        return tuple(self._sizes)

    def items(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._sizes.items())

    def copy(self) -> "DimRegistry":
        clone = DimRegistry()
        clone._sizes = dict(self._sizes)
        return clone


@dataclass(frozen=True)
class TensorSpec:
    """A named tensor whose axes are named dimensions.

    Attributes:
        name: unique tensor name within its graph.
        dims: per-axis dimension names (ordered).
        dtype: one of the keys of :data:`DTYPE_BYTES`.
        is_weight: whether this tensor is a model parameter (resident in
            device memory before the kernel runs; relevant for the data
            movement accounting of section 6.3).
    """

    name: str
    dims: tuple[str, ...]
    dtype: str = "fp16"
    is_weight: bool = False

    def __post_init__(self) -> None:
        if self.dtype not in DTYPE_BYTES:
            raise ValueError(f"unsupported dtype {self.dtype!r}")
        if len(set(self.dims)) != len(self.dims):
            raise ValueError(f"tensor {self.name!r} repeats a dimension: {self.dims}")

    @property
    def rank(self) -> int:
        return len(self.dims)

    def shape(self, registry: DimRegistry) -> tuple[int, ...]:
        """Concrete shape of this tensor under ``registry``."""
        return tuple(registry.size(d) for d in self.dims)

    def numel(self, registry: DimRegistry) -> int:
        n = 1
        for d in self.dims:
            n *= registry.size(d)
        return n

    def nbytes(self, registry: DimRegistry) -> int:
        return self.numel(registry) * DTYPE_BYTES[self.dtype]

    def axis_of(self, dim: str) -> int:
        """Position of dimension ``dim`` in this tensor's axis order."""
        try:
            return self.dims.index(dim)
        except ValueError:
            raise ValueError(f"tensor {self.name!r} has no dimension {dim!r}") from None
