"""Operator definitions for the tensor-program IR.

Every operator is described in an einsum-like *access form*:

* it owns an **iteration space** — an ordered tuple of dimension names;
* every input tensor maps each of its axes onto one iteration dimension;
* the output tensor maps its axes onto a subset of the iteration dimensions;
* iteration dimensions missing from the output are **reduced** with a
  combiner (``sum``, ``max``, ``min``, ``mean``).

This access form is exactly the information the paper's Space-Mapping Graph
needs (section 2, Table 1): an input that lacks an iteration dimension is
reused along it (a One-to-All mapping); a reduced dimension induces an
All-to-One mapping from the iteration space to the output; and matching axes
induce One-to-One mappings.  All non-element-wise operators in the paper
(GEMM, Softmax's reductions, LayerNorm's means, broadcasts) decompose into
this form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .tensor import DimRegistry

#: Elementwise scalar functions available as ``kind`` values.
UNARY_KINDS = {
    "exp", "sqrt", "rsqrt", "relu", "gelu", "tanh", "sigmoid", "neg",
    "reciprocal", "square", "abs", "log", "erf", "silu", "identity", "cast",
}

#: Elementwise binary functions (broadcasting expressed via axis maps).
BINARY_KINDS = {"add", "sub", "mul", "div", "maximum", "minimum", "pow", "where_mask"}

#: Reduction combiners.
REDUCE_KINDS = {"sum", "max", "min", "mean"}

#: Kinds that multiply pairs of elements before reducing (GEMM-like).
CONTRACTION_KINDS = {"matmul"}

#: Layout/shape operators: they act as fusion barriers during program
#: partitioning (section 5, "unavoidable shape or layout transformations").
BARRIER_KINDS = {"reshape", "transpose", "layout_cast", "gather", "concat", "split"}


@dataclass(frozen=True)
class Op:
    """One operator instance in a dataflow graph.

    Attributes:
        name: unique op name within its graph.
        kind: operator kind (see the module-level kind sets).
        inputs: names of input tensors, in positional order.
        output: name of the produced tensor.
        input_axes: for each input, the iteration-dimension name of each of
            its axes.  An axis map shorter than the iteration space means the
            input is broadcast (reused) along the missing dimensions.
        output_axes: iteration-dimension names of the output's axes.
        iter_dims: the full ordered iteration space of the operator.
        reduce_dims: iteration dimensions reduced away (absent from output).
        reduce_kind: combiner for the reduced dimensions, if any.
        attrs: static attributes (e.g. scalar constants: ``{"scalar": 0.5}``).
    """

    name: str
    kind: str
    inputs: tuple[str, ...]
    output: str
    input_axes: tuple[tuple[str, ...], ...]
    output_axes: tuple[str, ...]
    iter_dims: tuple[str, ...]
    reduce_dims: tuple[str, ...] = ()
    reduce_kind: str | None = None
    attrs: dict = field(default_factory=dict, compare=False, hash=False)

    def __post_init__(self) -> None:
        if len(self.inputs) != len(self.input_axes):
            raise ValueError(f"op {self.name!r}: inputs/input_axes length mismatch")
        iter_set = set(self.iter_dims)
        for tensor, axes in zip(self.inputs, self.input_axes):
            missing = set(axes) - iter_set
            if missing:
                raise ValueError(
                    f"op {self.name!r}: input {tensor!r} uses dims {missing} "
                    "outside the iteration space"
                )
        if set(self.output_axes) - iter_set:
            raise ValueError(f"op {self.name!r}: output dims outside iteration space")
        expected_reduce = tuple(d for d in self.iter_dims if d not in self.output_axes)
        if tuple(self.reduce_dims) != expected_reduce:
            raise ValueError(
                f"op {self.name!r}: reduce_dims {self.reduce_dims} do not match "
                f"iteration-minus-output dims {expected_reduce}"
            )
        if self.reduce_dims and self.reduce_kind not in REDUCE_KINDS:
            raise ValueError(f"op {self.name!r}: reducing op needs a reduce_kind")

    # ------------------------------------------------------------------
    # Dependency-pattern queries (paper section 2, Table 1)
    # ------------------------------------------------------------------

    def broadcast_dims_of_input(self, idx: int) -> tuple[str, ...]:
        """Iteration dims along which input ``idx`` is reused (One-to-All)."""
        present = set(self.input_axes[idx])
        return tuple(d for d in self.iter_dims if d not in present)

    @property
    def is_elementwise(self) -> bool:
        """True when every input and the output cover the full iteration space."""
        if self.reduce_dims:
            return False
        full = set(self.iter_dims)
        return all(set(axes) == full for axes in self.input_axes)

    @property
    def has_broadcast(self) -> bool:
        return any(self.broadcast_dims_of_input(i) for i in range(len(self.inputs)))

    @property
    def is_reduction(self) -> bool:
        return bool(self.reduce_dims)

    @property
    def is_contraction(self) -> bool:
        return self.kind in CONTRACTION_KINDS

    @property
    def is_barrier(self) -> bool:
        return self.kind in BARRIER_KINDS

    # ------------------------------------------------------------------
    # Cost queries
    # ------------------------------------------------------------------

    def iter_volume(self, registry: DimRegistry) -> int:
        vol = 1
        for d in self.iter_dims:
            vol *= registry.size(d)
        return vol

    def flops(self, registry: DimRegistry) -> int:
        """Floating-point operations performed by this op.

        Contractions count a multiply-add (2 flops) per iteration point;
        everything else counts 1 flop per iteration point (transcendentals
        are weighted by the hardware model, not here).
        """
        if self.kind in BARRIER_KINDS:
            return 0
        vol = self.iter_volume(registry)
        if self.is_contraction:
            return 2 * vol
        return vol


# ----------------------------------------------------------------------
# Factory helpers
# ----------------------------------------------------------------------


def make_matmul(
    name: str,
    a: str,
    a_axes: tuple[str, ...],
    b: str,
    b_axes: tuple[str, ...],
    out: str,
    out_axes: tuple[str, ...],
    reduce_dim: str,
) -> Op:
    """GEMM in access form: ``out[out_axes] += a[a_axes] * b[b_axes]``.

    ``reduce_dim`` must appear in both operand axis maps and not in the
    output.  Batch dimensions are expressed simply by including them in all
    three axis maps.
    """
    iter_dims = list(out_axes)
    if reduce_dim in iter_dims:
        raise ValueError(f"matmul {name!r}: reduce dim {reduce_dim!r} also in output")
    iter_dims.append(reduce_dim)
    for label, axes in (("a", a_axes), ("b", b_axes)):
        if reduce_dim not in axes:
            raise ValueError(f"matmul {name!r}: operand {label} lacks reduce dim")
    return Op(
        name=name,
        kind="matmul",
        inputs=(a, b),
        output=out,
        input_axes=(tuple(a_axes), tuple(b_axes)),
        output_axes=tuple(out_axes),
        iter_dims=tuple(iter_dims),
        reduce_dims=(reduce_dim,),
        reduce_kind="sum",
    )


def make_einsum(
    name: str,
    a: str,
    a_axes: tuple[str, ...],
    b: str,
    b_axes: tuple[str, ...],
    out: str,
    out_axes: tuple[str, ...],
) -> Op:
    """General two-operand einsum: the Table-1 row whose dependency classes
    are all *potential* — they materialise from the axis maps.

    Iteration space = output axes followed by the contracted axes (those
    present in an operand but absent from the output), reduced with sum.
    Batched/multi-contraction GEMMs, outer products, and plain element-wise
    products are all special cases.
    """
    iter_dims = list(out_axes)
    for axes in (a_axes, b_axes):
        for d in axes:
            if d not in iter_dims:
                iter_dims.append(d)
    reduce_dims = tuple(d for d in iter_dims if d not in out_axes)
    return Op(
        name=name,
        kind="matmul",
        inputs=(a, b),
        output=out,
        input_axes=(tuple(a_axes), tuple(b_axes)),
        output_axes=tuple(out_axes),
        iter_dims=tuple(iter_dims),
        reduce_dims=reduce_dims,
        reduce_kind="sum" if reduce_dims else None,
    )


def make_reduce(
    name: str,
    kind: str,
    src: str,
    src_axes: tuple[str, ...],
    out: str,
    reduce_dim: str,
) -> Op:
    """Reduction (``sum``/``max``/``min``/``mean``) over one dimension."""
    if kind not in REDUCE_KINDS:
        raise ValueError(f"unknown reduce kind {kind!r}")
    if reduce_dim not in src_axes:
        raise ValueError(f"reduce {name!r}: {reduce_dim!r} not an axis of {src!r}")
    out_axes = tuple(d for d in src_axes if d != reduce_dim)
    return Op(
        name=name,
        kind=f"reduce_{kind}",
        inputs=(src,),
        output=out,
        input_axes=(tuple(src_axes),),
        output_axes=out_axes,
        iter_dims=tuple(src_axes),
        reduce_dims=(reduce_dim,),
        reduce_kind=kind,
    )


def make_unary(
    name: str,
    kind: str,
    src: str,
    axes: tuple[str, ...],
    out: str,
    **attrs,
) -> Op:
    if kind not in UNARY_KINDS:
        raise ValueError(f"unknown unary kind {kind!r}")
    return Op(
        name=name,
        kind=kind,
        inputs=(src,),
        output=out,
        input_axes=(tuple(axes),),
        output_axes=tuple(axes),
        iter_dims=tuple(axes),
        attrs=dict(attrs),
    )


def make_binary(
    name: str,
    kind: str,
    lhs: str,
    lhs_axes: tuple[str, ...],
    rhs: str,
    rhs_axes: tuple[str, ...],
    out: str,
    out_axes: tuple[str, ...],
    **attrs,
) -> Op:
    """Elementwise binary op; broadcasting is encoded by shorter axis maps."""
    if kind not in BINARY_KINDS:
        raise ValueError(f"unknown binary kind {kind!r}")
    return Op(
        name=name,
        kind=kind,
        inputs=(lhs, rhs),
        output=out,
        input_axes=(tuple(lhs_axes), tuple(rhs_axes)),
        output_axes=tuple(out_axes),
        iter_dims=tuple(out_axes),
        attrs=dict(attrs),
    )


def make_scalar(
    name: str,
    kind: str,
    src: str,
    axes: tuple[str, ...],
    out: str,
    scalar: float,
) -> Op:
    """Elementwise op against a compile-time scalar (e.g. ``x * 0.125``)."""
    if kind not in {"add", "sub", "mul", "div", "pow", "maximum", "rsub", "rdiv"}:
        raise ValueError(f"unknown scalar op kind {kind!r}")
    return Op(
        name=name,
        kind=f"scalar_{kind}",
        inputs=(src,),
        output=out,
        input_axes=(tuple(axes),),
        output_axes=tuple(axes),
        iter_dims=tuple(axes),
        attrs={"scalar": float(scalar)},
    )


def make_barrier(
    name: str,
    kind: str,
    src: str,
    src_axes: tuple[str, ...],
    out: str,
    out_axes: tuple[str, ...],
    **attrs,
) -> Op:
    """Shape/layout op.  Iteration space is the output space; dependencies are
    opaque, which is why these ops delimit subprograms (section 5)."""
    if kind not in BARRIER_KINDS:
        raise ValueError(f"unknown barrier kind {kind!r}")
    return Op(
        name=name,
        kind=kind,
        inputs=(src,),
        output=out,
        input_axes=((),),  # opaque: no per-axis mapping is exposed
        output_axes=tuple(out_axes),
        iter_dims=tuple(out_axes),
        attrs=dict(attrs),
    )


#: Generic SIMT instruction weights (FMA-equivalents per scalar op) used
#: when no per-architecture table overrides them (see
#: ``repro.hw.specs.GPUSpec.instruction_weight``).
GENERIC_INSTRUCTION_WEIGHTS = {
    "exp": 4.0, "log": 4.0, "erf": 6.0, "gelu": 8.0, "tanh": 6.0,
    "sigmoid": 5.0, "silu": 5.0, "sqrt": 4.0, "rsqrt": 4.0, "pow": 6.0,
}


def transcendental_weight(kind: str, table=None) -> float:
    """Relative ALU cost of one scalar application of ``kind``.

    Used by the hardware cost model: special-function units make ``exp`` and
    friends several times more expensive than an FMA.  ``table`` (an optional
    ``{kind: weight}`` mapping) overrides the generic numbers with a GPU
    family's own latency table; unlisted kinds fall back to the generic
    entries and plain FMA-class ops cost 1.0 everywhere.
    """
    if table is not None and kind in table:
        return float(table[kind])
    return GENERIC_INSTRUCTION_WEIGHTS.get(kind, 1.0)


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def pow2_floor(x: int) -> int:
    """Largest power of two <= x (x >= 1)."""
    if x < 1:
        raise ValueError("pow2_floor requires x >= 1")
    return 1 << (x.bit_length() - 1)


def pow2_range(lo: int, hi: int) -> list[int]:
    """Powers of two in [lo, hi], used by the config enumerator (section 5.1)."""
    if lo < 1 or hi < lo:
        return []
    out = []
    p = 1 << max(0, (lo - 1).bit_length())
    while p <= hi:
        out.append(p)
        p <<= 1
    return out
