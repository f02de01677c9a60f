"""Reference numpy kernels: numerical semantics of every IR operator.

Operators evaluate in an einsum-like way: operands are aligned onto the
operator's iteration space by axis name, the scalar function is applied,
and reduced dimensions are folded with the declared combiner.  Evaluation
is dtype-parametric; the executor defaults to float64 so that fused
(UTA-rescaled) and unfused results can be compared to tight tolerances.
"""

from __future__ import annotations

import numpy as np

from ..codegen.matmul import matmul_blas
from ..ir.graph import DataflowGraph
from ..ir.ops import Op


class KernelError(Exception):
    """Raised when an operator cannot be evaluated."""


def _erf(x: np.ndarray) -> np.ndarray:
    try:
        from scipy.special import erf
        return erf(x)
    except ImportError:  # pragma: no cover - scipy is a test dependency
        from math import erf as _serf
        return np.vectorize(_serf)(x)


_UNARY_FUNCS = {
    "exp": np.exp,
    "sqrt": np.sqrt,
    "rsqrt": lambda x: 1.0 / np.sqrt(x),
    "relu": lambda x: np.maximum(x, 0.0),
    "gelu": lambda x: 0.5 * x * (1.0 + _erf(x / np.sqrt(2.0))),
    "tanh": np.tanh,
    "sigmoid": lambda x: 1.0 / (1.0 + np.exp(-x)),
    "silu": lambda x: x / (1.0 + np.exp(-x)),
    "neg": np.negative,
    "reciprocal": lambda x: 1.0 / x,
    "square": np.square,
    "abs": np.abs,
    "log": np.log,
    "erf": _erf,
    "identity": lambda x: x,
    "cast": lambda x: x,
}

_BINARY_FUNCS = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "div": np.divide,
    "maximum": np.maximum,
    "minimum": np.minimum,
    "pow": np.power,
}

_REDUCE_FUNCS = {
    "sum": np.sum,
    "max": np.max,
    "min": np.min,
    "mean": np.mean,
}

#: Identity element per combiner, used to initialise running aggregates.
REDUCE_INIT = {
    "sum": 0.0,
    "mean": 0.0,
    "max": -np.inf,
    "min": np.inf,
}


def _align(arr: np.ndarray, axes: tuple[str, ...], target: tuple[str, ...],
           ) -> np.ndarray:
    """Reorder/insert axes so ``arr`` broadcasts over ``target`` dims."""
    if axes == target:
        return arr
    order = [axes.index(d) for d in target if d in axes]
    arr = np.transpose(arr, order)
    shape = list(arr.shape)
    full_shape = []
    i = 0
    for d in target:
        if d in axes:
            full_shape.append(shape[i])
            i += 1
        else:
            full_shape.append(1)
    return arr.reshape(full_shape)


def evaluate_op(op: Op, env: dict[str, np.ndarray],
                sizes: dict[str, int] | None = None) -> np.ndarray:
    """Evaluate one operator over (possibly sliced) operand arrays.

    ``env`` maps tensor names to arrays laid out in their spec's axis
    order; the result is laid out in ``op.output_axes`` order.
    """
    kind = op.kind

    if kind == "matmul":
        # Routed through the shared batched-GEMM lowering so interpreter
        # and compiled plans contract with identical bits (matmul_blas
        # docstring covers the slice-stability caveat).
        return matmul_blas(env[op.inputs[0]], env[op.inputs[1]],
                           op.input_axes[0], op.input_axes[1],
                           op.output_axes)

    if kind.startswith("reduce_"):
        rk = op.reduce_kind
        arr = env[op.inputs[0]]
        axes = op.input_axes[0]
        red_axes = tuple(axes.index(d) for d in op.reduce_dims)
        out = _REDUCE_FUNCS[rk](arr, axis=red_axes)
        # input axis order minus reduced dims == output_axes order here
        remaining = tuple(d for d in axes if d not in op.reduce_dims)
        if remaining != op.output_axes:
            out = _align(out, remaining, op.output_axes).reshape(
                [s for s in out.shape])
        return out

    if kind.startswith("scalar_"):
        x = env[op.inputs[0]]
        c = op.attrs["scalar"]
        skind = kind[len("scalar_"):]
        if skind == "rsub":
            return c - x
        if skind == "rdiv":
            return c / x
        if skind == "maximum":
            return np.maximum(x, c)
        return _BINARY_FUNCS[skind](x, c)

    if kind in _UNARY_FUNCS:
        return _UNARY_FUNCS[kind](env[op.inputs[0]])

    if kind == "where_mask":
        x = _align(env[op.inputs[0]], op.input_axes[0], op.output_axes)
        m = _align(env[op.inputs[1]], op.input_axes[1], op.output_axes)
        fill = op.attrs.get("fill", -np.inf)
        x, m = np.broadcast_arrays(x, m)
        return np.where(m != 0, x, fill)

    if kind in _BINARY_FUNCS:
        lhs = _align(env[op.inputs[0]], op.input_axes[0], op.output_axes)
        rhs = _align(env[op.inputs[1]], op.input_axes[1], op.output_axes)
        return _BINARY_FUNCS[kind](lhs, rhs)

    if kind == "reshape":
        arr = env[op.inputs[0]]
        if sizes is None:
            raise KernelError("reshape requires dimension sizes")
        return arr.reshape([sizes[d] for d in op.output_axes])

    if kind == "transpose":
        arr = env[op.inputs[0]]
        perm = op.attrs.get("perm")
        if perm is None:
            raise KernelError(f"transpose {op.name!r} lacks a 'perm' attribute")
        return np.transpose(arr, perm)

    if kind == "layout_cast":
        return env[op.inputs[0]]

    raise KernelError(f"no kernel for op kind {kind!r}")


def execute_graph_reference(graph: DataflowGraph,
                            feeds: dict[str, np.ndarray],
                            dtype=np.float64) -> dict[str, np.ndarray]:
    """Unfused op-by-op reference execution of a dataflow graph.

    A tensor leaves the env after its last reader unless it is a graph
    output, so the peak is the largest live set, not every intermediate.
    """
    sizes = {d: graph.dims.size(d) for d in graph.dims.names()}
    env: dict[str, np.ndarray] = {}
    for name in graph.input_tensors:
        if name not in feeds:
            raise KernelError(f"missing feed for input {name!r}")
        arr = np.asarray(feeds[name], dtype=dtype)
        expected = graph.tensors[name].shape(graph.dims)
        if arr.shape != expected:
            raise KernelError(
                f"feed {name!r} has shape {arr.shape}, expected {expected}")
        env[name] = arr
    ops = graph.topological_ops()
    last_reader = {t: i for i, op in enumerate(ops) for t in op.inputs}
    keep = set(graph.output_tensors)
    for i, op in enumerate(ops):
        env[op.output] = np.asarray(evaluate_op(op, env, sizes), dtype=dtype)
        for t in (*op.inputs, op.output):
            if last_reader.get(t, i) == i and t not in keep:
                env.pop(t, None)
    return {t: env[t] for t in graph.output_tensors}


def random_feeds(graph: DataflowGraph, seed: int = 0,
                 scale: float = 1.0) -> dict[str, np.ndarray]:
    """Deterministic random inputs for every graph input tensor."""
    rng = np.random.default_rng(seed)
    feeds = {}
    for name in graph.input_tensors:
        shape = graph.tensors[name].shape(graph.dims)
        feeds[name] = rng.standard_normal(shape) * scale
    return feeds
