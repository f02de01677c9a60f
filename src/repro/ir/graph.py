"""Dataflow graph (DFG) and a fluent builder for tensor programs.

The DFG is the traditional high-level abstraction the paper contrasts SMGs
with (section 3, Challenge 1): nodes are operators, edges are tensor-wise
dataflow.  SpaceFusion consumes DFGs as input and lifts them to SMGs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .ops import (
    BARRIER_KINDS,
    Op,
    make_barrier,
    make_binary,
    make_einsum,
    make_matmul,
    make_reduce,
    make_scalar,
    make_unary,
)
from .tensor import DimRegistry, TensorSpec


class GraphError(Exception):
    """Raised for malformed dataflow graphs."""


@dataclass
class DataflowGraph:
    """An operator-level dataflow graph over named tensors."""

    name: str
    dims: DimRegistry = field(default_factory=DimRegistry)
    tensors: dict[str, TensorSpec] = field(default_factory=dict)
    ops: list[Op] = field(default_factory=list)
    #: Optional explicit output set.  When unset, outputs are inferred as
    #: produced-but-never-consumed tensors; rewrites pin the original outputs
    #: here so temporarily-dead tensors do not masquerade as outputs.
    declared_outputs: list[str] | None = None
    #: ``(ops list, its length, {tensor: first producer})``: rebuilt when
    #: ``ops`` is reassigned or grows outside :meth:`add_op`.
    _producers: tuple = field(default=(None, 0, None), init=False, repr=False,
                              compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def add_tensor(self, spec: TensorSpec) -> TensorSpec:
        if spec.name in self.tensors:
            raise GraphError(f"tensor {spec.name!r} already defined")
        for d in spec.dims:
            if d not in self.dims:
                raise GraphError(f"tensor {spec.name!r} uses unknown dim {d!r}")
        self.tensors[spec.name] = spec
        return spec

    def add_op(self, op: Op) -> Op:
        for t in op.inputs:
            if t not in self.tensors:
                raise GraphError(f"op {op.name!r} reads undefined tensor {t!r}")
        if op.output not in self.tensors:
            raise GraphError(f"op {op.name!r} writes undefined tensor {op.output!r}")
        if self.producer_of(op.output) is not None:
            raise GraphError(f"tensor {op.output!r} written twice (SSA violated)")
        self.ops.append(op)
        ops, n, index = self._producers
        index[op.output] = op
        self._producers = ops, n + 1, index
        return op

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def producer_of(self, tensor: str) -> Op | None:
        ops, n, index = self._producers
        if ops is not self.ops or n != len(ops):
            index = {}
            for op in reversed(self.ops):
                index[op.output] = op
            self._producers = self.ops, len(self.ops), index
        return index.get(tensor)

    def consumers_of(self, tensor: str) -> list[Op]:
        return [op for op in self.ops if tensor in op.inputs]

    def op(self, name: str) -> Op:
        for op in self.ops:
            if op.name == name:
                return op
        raise KeyError(f"no op named {name!r}")

    @property
    def input_tensors(self) -> list[str]:
        produced = {op.output for op in self.ops}
        # Insertion-ordered set: first-read order, without a list scan.
        used: dict[str, None] = {}
        for op in self.ops:
            for t in op.inputs:
                if t not in produced:
                    used[t] = None
        return list(used)

    @property
    def output_tensors(self) -> list[str]:
        if self.declared_outputs is not None:
            return list(self.declared_outputs)
        consumed = {t for op in self.ops for t in op.inputs}
        return [op.output for op in self.ops if op.output not in consumed]

    @property
    def intermediate_tensors(self) -> list[str]:
        outs = set(self.output_tensors)
        return [op.output for op in self.ops if op.output not in outs]

    def topological_ops(self) -> list[Op]:
        """Ops in dependency order.  The op list is SSA and almost always
        already topological, so one linear pass confirms that and returns
        the insertion order; only a shuffled list pays for the sort."""
        ready = set(self.input_tensors)
        for op in self.ops:
            if not ready.issuperset(op.inputs):
                return self._sorted_ops()
            ready.add(op.output)
        return list(self.ops)

    def _sorted_ops(self) -> list[Op]:
        ready = set(self.input_tensors)
        pending = list(self.ops)
        ordered: list[Op] = []
        while pending:
            progressed = False
            remaining = []
            for op in pending:
                if all(t in ready for t in op.inputs):
                    ordered.append(op)
                    ready.add(op.output)
                    progressed = True
                else:
                    remaining.append(op)
            if not progressed:
                names = [op.name for op in remaining]
                raise GraphError(f"cycle or missing producer among ops {names}")
            pending = remaining
        return ordered

    def validate(self) -> None:
        """Check SSA, axis-arity consistency, and acyclicity."""
        self.topological_ops()
        for op in self.ops:
            if op.kind in BARRIER_KINDS:
                continue
            for tname, axes in zip(op.inputs, op.input_axes):
                spec = self.tensors[tname]
                if len(axes) != spec.rank:
                    raise GraphError(
                        f"op {op.name!r}: axis map {axes} does not match rank "
                        f"of {tname!r} ({spec.rank})"
                    )
            out_spec = self.tensors[op.output]
            if len(op.output_axes) != out_spec.rank:
                raise GraphError(
                    f"op {op.name!r}: output axes {op.output_axes} do not match "
                    f"rank of {op.output!r}"
                )

    def total_flops(self) -> int:
        return sum(op.flops(self.dims) for op in self.ops)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DataflowGraph({self.name!r}, {len(self.ops)} ops, {len(self.tensors)} tensors)"


@dataclass(frozen=True)
class TensorRef:
    """Handle returned by :class:`GraphBuilder` methods; tracks axis names."""

    name: str
    dims: tuple[str, ...]


class GraphBuilder:
    """Fluent construction of :class:`DataflowGraph` instances.

    Example (the Softmax-GEMM pair of the paper's Figure 2)::

        b = GraphBuilder("softmax_gemm")
        x = b.input("X", [("m", 64), ("k", 256)])
        w = b.input("W", [("n", 64), ("k", 256)], is_weight=True)
        p = b.softmax(x, dim="k")
        out = b.matmul(p, w, reduce_dim="k", out_name="Out")
        graph = b.build()
    """

    def __init__(self, name: str, dtype: str = "fp16") -> None:
        self.graph = DataflowGraph(name)
        self.dtype = dtype
        self._counter = 0

    # -- naming helpers ---------------------------------------------------

    def _fresh(self, prefix: str) -> str:
        self._counter += 1
        return f"{prefix}_{self._counter}"

    def _tensor(self, name: str | None, prefix: str, dims: tuple[str, ...],
                is_weight: bool = False) -> TensorRef:
        tname = name or self._fresh(prefix)
        self.graph.add_tensor(TensorSpec(tname, dims, self.dtype, is_weight))
        return TensorRef(tname, dims)

    # -- graph inputs -----------------------------------------------------

    def dim(self, name: str, size: int) -> str:
        return self.graph.dims.define(name, size)

    def input(self, name: str, dims: list[tuple[str, int]] | list[str],
              is_weight: bool = False) -> TensorRef:
        """Declare a graph input.  ``dims`` entries are ``(name, size)`` pairs
        or bare names of already-registered dimensions."""
        dim_names = []
        for d in dims:
            if isinstance(d, tuple):
                dim_names.append(self.dim(*d))
            else:
                if d not in self.graph.dims:
                    raise GraphError(f"dimension {d!r} not registered")
                dim_names.append(d)
        return self._tensor(name, "in", tuple(dim_names), is_weight)

    # -- operator emitters -------------------------------------------------

    def matmul(self, a: TensorRef, b: TensorRef, reduce_dim: str,
               out_name: str | None = None, out_dims: tuple[str, ...] | None = None,
               ) -> TensorRef:
        if out_dims is None:
            out_dims = tuple(d for d in a.dims + b.dims
                             if d != reduce_dim and (d in a.dims) != (d in b.dims)
                             or (d in a.dims and d in b.dims and d != reduce_dim))
            # de-duplicate while preserving order
            seen: list[str] = []
            for d in out_dims:
                if d not in seen:
                    seen.append(d)
            out_dims = tuple(seen)
        out = self._tensor(out_name, "mm", out_dims)
        self.graph.add_op(make_matmul(
            self._fresh("matmul"), a.name, a.dims, b.name, b.dims,
            out.name, out.dims, reduce_dim))
        return out

    def einsum(self, a: TensorRef, b: TensorRef, out_dims: tuple[str, ...],
               out_name: str | None = None) -> TensorRef:
        """General two-operand contraction; dims absent from ``out_dims``
        are summed away (possibly several at once)."""
        out = self._tensor(out_name, "es", tuple(out_dims))
        self.graph.add_op(make_einsum(
            self._fresh("einsum"), a.name, a.dims, b.name, b.dims,
            out.name, tuple(out_dims)))
        return out

    def reduce(self, kind: str, src: TensorRef, dim: str,
               out_name: str | None = None) -> TensorRef:
        out_dims = tuple(d for d in src.dims if d != dim)
        out = self._tensor(out_name, f"r{kind}", out_dims)
        self.graph.add_op(make_reduce(
            self._fresh(f"reduce_{kind}"), kind, src.name, src.dims, out.name, dim))
        return out

    def unary(self, kind: str, src: TensorRef, out_name: str | None = None,
              **attrs) -> TensorRef:
        out = self._tensor(out_name, kind, src.dims)
        self.graph.add_op(make_unary(
            self._fresh(kind), kind, src.name, src.dims, out.name, **attrs))
        return out

    def binary(self, kind: str, lhs: TensorRef, rhs: TensorRef,
               out_name: str | None = None) -> TensorRef:
        """Elementwise binary; the output space is the union of operand dims,
        ordered by first appearance (broadcast operands simply omit dims)."""
        out_dims = list(lhs.dims)
        for d in rhs.dims:
            if d not in out_dims:
                out_dims.append(d)
        out = self._tensor(out_name, kind, tuple(out_dims))
        self.graph.add_op(make_binary(
            self._fresh(kind), kind, lhs.name, lhs.dims, rhs.name, rhs.dims,
            out.name, tuple(out_dims)))
        return out

    def scalar(self, kind: str, src: TensorRef, value: float,
               out_name: str | None = None) -> TensorRef:
        out = self._tensor(out_name, f"s{kind}", src.dims)
        self.graph.add_op(make_scalar(
            self._fresh(f"scalar_{kind}"), kind, src.name, src.dims,
            out.name, value))
        return out

    def barrier(self, kind: str, src: TensorRef,
                out_dims: list[tuple[str, int]] | tuple[str, ...],
                out_name: str | None = None, **attrs) -> TensorRef:
        dim_names = []
        for d in out_dims:
            dim_names.append(self.dim(*d) if isinstance(d, tuple) else d)
        out = self._tensor(out_name, kind, tuple(dim_names))
        self.graph.add_op(make_barrier(
            self._fresh(kind), kind, src.name, src.dims, out.name,
            tuple(dim_names), **attrs))
        return out

    # -- composite emitters (decomposed into primitives, as in Fig. 10) ----

    def softmax(self, src: TensorRef, dim: str, out_name: str | None = None,
                ) -> TensorRef:
        """Numerically-stable softmax decomposed as in the paper's Figure 1:
        max, sub, exp, sum, div."""
        mx = self.reduce("max", src, dim)
        shifted = self.binary("sub", src, mx)
        e = self.unary("exp", shifted)
        s = self.reduce("sum", e, dim)
        return self.binary("div", e, s, out_name=out_name)

    def layernorm(self, src: TensorRef, dim: str, eps: float = 1e-5,
                  gamma: TensorRef | None = None, beta: TensorRef | None = None,
                  out_name: str | None = None) -> TensorRef:
        """LayerNorm decomposed as in the paper's Figure 10(c):
        mean, sub, sqr, mean, add-eps, sqrt, div (+ optional affine)."""
        mu = self.reduce("mean", src, dim)
        centered = self.binary("sub", src, mu)
        sq = self.unary("square", centered)
        var = self.reduce("mean", sq, dim)
        var_eps = self.scalar("add", var, eps)
        std = self.unary("sqrt", var_eps)
        normed = self.binary("div", centered, std)
        if gamma is not None:
            normed = self.binary("mul", normed, gamma)
        if beta is not None:
            normed = self.binary("add", normed, beta)
        if out_name is not None:
            normed = self.unary("identity", normed, out_name=out_name)
        return normed

    def build(self) -> DataflowGraph:
        self.graph.validate()
        return self.graph
