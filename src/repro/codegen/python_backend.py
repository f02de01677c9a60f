"""Executable code generation: lower a program schedule to one Python function.

Where :mod:`repro.codegen.triton_like` emits pseudocode for humans, this
backend emits *runnable* Python/numpy source — the reproduction's analogue
of the paper handing SMG schedules to OpenAI Triton for code generation.
:func:`generate_fused_program` lowers a whole
:class:`~repro.core.schedule.ProgramSchedule` into ONE ``def program(env):``
with one segment per kernel, recorded as a :class:`LoweredKernel`:

* ``vector`` — a kernel without a temporal plan, as straight-line
  whole-tensor numpy (the spatial grid collapses; gemms replay the
  interpreter's blocking along their free dims);
* ``loopnest`` — a temporal kernel: tile-invariant work hoisted, the tuned
  intra-block tile loop with the synthesised update functions *inlined as
  arithmetic* (the paper: "Update Functions ... are inlined to the
  functions in Figure 7"), then the pass-2 epilogue when the plan has one;
* ``barrier`` — a reshape/transpose between kernels.

An op the emitter cannot express raises :class:`CodegenError`; there is no
per-op fallback.  Being independent of the schedule interpreter, the plan
is an end-to-end cross-check: fused plan, interpreter and the unfused
reference must all agree.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..core.schedule import KernelSchedule, ProgramSchedule
from ..core.temporal_slicer import ReductionStage
from .matmul import (
    _blocked_plan,
    gemm_free_dims,
    matmul_blas,
    matmul_blocked,
)
from ..ir.graph import DataflowGraph
from ..ir.ops import Op

_PRELUDE = "import numpy as np\n"


def _var(tensor: str) -> str:
    """Tensor names as generated-code identifiers."""
    return "v_" + "".join(c if c.isalnum() or c == "_" else "_"
                          for c in tensor)


def _axis_expr(graph: DataflowGraph, tensor: str, target_dims,
               array_expr: str) -> str:
    """Reshape/transpose ``array_expr`` so it broadcasts over target dims."""
    dims = graph.tensors[tensor].dims
    if tuple(dims) == tuple(target_dims):
        return array_expr
    order = [dims.index(d) for d in target_dims if d in dims]
    expr = array_expr
    if order != sorted(order):
        expr = f"np.transpose({expr}, {tuple(order)})"
    idx = []
    for d in target_dims:
        idx.append(":" if d in dims else "None")
    if "None" in idx:
        expr = f"{expr}[{', '.join(idx)}]"
    return expr


_UNARY_EXPR = {
    "exp": "np.exp({x})",
    "sqrt": "np.sqrt({x})",
    "rsqrt": "1.0 / np.sqrt({x})",
    "relu": "np.maximum({x}, 0.0)",
    "gelu": "0.5 * {x} * (1.0 + _erf({x} / np.sqrt(2.0)))",
    "tanh": "np.tanh({x})",
    "sigmoid": "1.0 / (1.0 + np.exp(-({x})))",
    "silu": "{x} / (1.0 + np.exp(-({x})))",
    "neg": "-({x})",
    "reciprocal": "1.0 / ({x})",
    "square": "np.square({x})",
    "abs": "np.abs({x})",
    "log": "np.log({x})",
    "erf": "_erf({x})",
    "identity": "({x})",
    "cast": "({x})",
}

_BINARY_SYM = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


class CodegenError(Exception):
    """Raised when an operator cannot be lowered to Python source."""


#: ufunc spellings for kinds that can write through ``out=`` with bitwise-
#: identical results to the plain infix expression.
_UNARY_UFUNC = {
    "exp": "np.exp", "sqrt": "np.sqrt", "tanh": "np.tanh",
    "abs": "np.abs", "log": "np.log", "square": "np.square",
    "neg": "np.negative", "erf": "_erf",
}

_BINARY_UFUNC = {"add": "np.add", "sub": "np.subtract",
                 "mul": "np.multiply", "div": "np.divide",
                 "maximum": "np.maximum", "minimum": "np.minimum",
                 "pow": "np.power"}


def _op_call(graph: DataflowGraph, op: Op, names=None,
             out: str | None = None) -> tuple[str, bool]:
    """Render one op as a Python expression.

    ``names`` maps tensor names to identifiers (default ``_var``) so
    callers can substitute tile-sliced locals.  When ``out`` names a
    preallocated buffer and the op is a single top-level ufunc / reduce /
    gemm call — where ``out=`` is bitwise-identical to the plain
    expression — the call writes through it; the second element of the
    returned tuple says whether ``out`` was consumed.
    """
    nm = names or _var
    kind = op.kind
    o = f", out={out}" if out is not None else ""
    if kind == "matmul":
        return (f"_mm({nm(op.inputs[0])}, {nm(op.inputs[1])}, "
                f"{tuple(op.input_axes[0])!r}, "
                f"{tuple(op.input_axes[1])!r}, "
                f"{tuple(op.output_axes)!r}{o})"), out is not None
    if kind.startswith("reduce_"):
        axes = op.input_axes[0]
        red = tuple(axes.index(d) for d in op.reduce_dims)
        fn = {"sum": "np.sum", "max": "np.max", "min": "np.min",
              "mean": "np.mean"}[op.reduce_kind]
        return f"{fn}({nm(op.inputs[0])}, axis={red}{o})", out is not None
    if kind.startswith("scalar_"):
        sk = kind[len("scalar_"):]
        x = nm(op.inputs[0])
        c = repr(op.attrs["scalar"])
        if out is not None and sk in _BINARY_UFUNC:
            return f"{_BINARY_UFUNC[sk]}({x}, {c}{o})", True
        if out is not None and sk in ("rsub", "rdiv"):
            fn = "np.subtract" if sk == "rsub" else "np.divide"
            return f"{fn}({c}, {x}{o})", True
        if sk == "rsub":
            return f"{c} - {x}", False
        if sk == "rdiv":
            return f"{c} / {x}", False
        if sk == "maximum":
            return f"np.maximum({x}, {c}{o})", out is not None
        if sk == "pow":
            return f"np.power({x}, {c}{o})", out is not None
        return f"{x} {_BINARY_SYM[sk]} {c}", False
    if kind in _UNARY_EXPR:
        x = nm(op.inputs[0])
        if out is not None and kind in _UNARY_UFUNC:
            return f"{_UNARY_UFUNC[kind]}({x}{o})", True
        if out is not None and kind == "relu":
            return f"np.maximum({x}, 0.0{o})", True
        return _UNARY_EXPR[kind].format(x=x), False
    if kind in ("add", "sub", "mul", "div", "maximum", "minimum", "pow",
                "where_mask"):
        lhs = _axis_expr(graph, op.inputs[0], op.output_axes,
                         nm(op.inputs[0]))
        rhs = _axis_expr(graph, op.inputs[1], op.output_axes,
                         nm(op.inputs[1]))
        if kind == "where_mask":
            fill = float(op.attrs.get("fill", float("-inf")))
            return (f"np.where(np.broadcast_arrays({rhs}, {lhs})[0] != 0, "
                    f"np.broadcast_arrays({lhs}, {rhs})[0], "
                    f"float({str(fill)!r}))"), False
        if out is not None:
            return f"{_BINARY_UFUNC[kind]}({lhs}, {rhs}{o})", True
        if kind in _BINARY_SYM:
            return f"({lhs}) {_BINARY_SYM[kind]} ({rhs})", False
        if kind == "maximum":
            return f"np.maximum({lhs}, {rhs})", False
        if kind == "minimum":
            return f"np.minimum({lhs}, {rhs})", False
        return f"np.power({lhs}, {rhs})", False
    raise CodegenError(f"cannot lower op kind {kind!r} to Python")


def _factor_expr(graph: DataflowGraph, f, dims, nm, one: str | None = None,
                 ) -> str:
    """One normalisation factor of an update, broadcast over ``dims``."""
    old = _axis_expr(graph, f.agg, dims, f"old_{_var(f.agg)}")
    new = _axis_expr(graph, f.agg, dims, nm(f.agg))
    if f.func == "exp":
        return f"np.exp({f.power} * (({new}) - ({old})))"
    # ones_like inherits the operand dtype, so the neutral element
    # matches the plan's compute dtype (f64 plans are unchanged).
    one = one or f"np.ones_like(np.asarray({new}))"
    return (f"(np.divide({new}, {old}, out={one}, "
            f"where=np.asarray({old}) != 0)) ** ({f.power})")


def _offset_expr(graph: DataflowGraph, o, dims, nm) -> str:
    old = _axis_expr(graph, o.agg, dims, f"old_{_var(o.agg)}")
    new = _axis_expr(graph, o.agg, dims, nm(o.agg))
    return f"{o.coeff} * (({new}) - ({old}))"


def _update_expr(graph: DataflowGraph, stage: ReductionStage,
                 names=None) -> str:
    """Inline the stage's update function as arithmetic on old/new aggs."""
    nm = names or _var
    out_dims = graph.tensors[stage.output].dims
    expr = nm(stage.output)
    for f in stage.update.factors:
        expr = f"({expr}) * {_factor_expr(graph, f, out_dims, nm)}"
    for o in stage.update.offsets:
        expr = f"({expr}) + {_offset_expr(graph, o, out_dims, nm)}"
    return expr


_COMBINE = {
    "sum": "({upd}) + ({local})",
    "max": "np.maximum({upd}, {local})",
    "min": "np.minimum({upd}, {local})",
}

_INIT = {"sum": "0.0", "max": "-np.inf", "min": "np.inf"}


class Arena:
    """Reusable per-site scratch buffers for one compiled program.

    Without reuse, a fused plan page-faults a fresh multi-megabyte array
    for every intermediate on every call — allocation dominates the hot
    path.  Every emission site gets a stable integer id and buffers are
    cached per ``(site, shape)``, so steady-state execution allocates
    nothing.  Buffers are thread-local (a plan shared through the
    PlanCache may execute concurrently) and never escape: published
    outputs are always freshly allocated by the generated code.
    """

    def __init__(self, dtype) -> None:
        self.dtype = np.dtype(dtype)
        self._tl = threading.local()

    def _bufs(self) -> dict:
        bufs = getattr(self._tl, "bufs", None)
        if bufs is None:
            bufs = self._tl.bufs = {}
        return bufs

    def get(self, site: int, shape: tuple) -> np.ndarray:
        bufs = self._bufs()
        key = (site, shape)
        buf = bufs.get(key)
        if buf is None:
            buf = bufs[key] = np.empty(shape, dtype=self.dtype)
        return buf

    def fill(self, site: int, shape: tuple, value) -> np.ndarray:
        buf = self.get(site, shape)
        buf.fill(value)
        return buf

    def copy(self, site: int, src) -> np.ndarray:
        buf = self.get(site, np.shape(src))
        np.copyto(buf, src)
        return buf

    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._bufs().values())


@dataclass
class LoweredKernel:
    """One kernel's segment of a fused plan: its kind and source section."""

    name: str
    kind: str  # "vector" | "loopnest" | "barrier"
    source: str
    #: spatial blocks the interpreted schedule would have launched; the
    #: fused plan collapses them for everything except blocked gemms.
    grid_blocks: int = 1


@dataclass
class FusedProgram:
    """One exec-compiled callable for a whole program schedule."""

    name: str
    source: str
    fn: Callable[[dict], None]
    segments: list[LoweredKernel]
    inputs: tuple[str, ...]
    outputs: tuple[str, ...]
    arena: Arena


#: op kinds whose per-tile evaluation is a pure elementwise map over the
#: temporal slice — recomputing them on the whole axis at once is
#: bitwise-identical, so a pass-2 epilogue made only of these collapses
#: from a Python tile loop into straight-line slab operations.
def _tdim_elementwise(op: Op) -> bool:
    kind = op.kind
    return (kind in _UNARY_EXPR or kind.startswith("scalar_")
            or kind in ("add", "sub", "mul", "div", "maximum", "minimum",
                        "pow", "where_mask"))


class _FusedEmitter:
    """Emits one ``def program(env):`` for a whole kernel sequence.

    Parity contract with the schedule interpreter (bitwise at equal
    dtype): elementwise/reduce ops are slice-stable, so their spatial
    blocking collapses to whole-tensor slabs; BLAS gemms are *not*
    slice-stable along their free (M/N) dims, so matmuls replay the
    interpreter's exact per-block calls along those dims.  The temporal
    tile loop — which carries the SA/UTA aggregation semantics — is kept
    at the tuned tile size, with tile-invariant ops hoisted out and the
    pass-2 epilogue vectorised to slabs when it is purely elementwise.
    """

    def __init__(self, program: ProgramSchedule, dtype,
                 outputs=None) -> None:
        self.program = program
        self.dtype = np.dtype(dtype)
        self.lines: list[str] = ["def program(env):"]
        self.defined: set[str] = set()
        self.site = 0
        self.segments: list[LoweredKernel] = []

        produced: set[str] = set()
        consumed: set[str] = set()
        kernel_outputs: set[str] = set()
        for k in program.kernels:
            g = k.exec_graph
            consumed.update(t for t in g.input_tensors)
            produced.update(op.output for op in g.ops)
            kernel_outputs.update(g.output_tensors)
        self.produced = produced
        self.program_inputs = consumed - produced
        if outputs is None:
            # Publish kernel-declared outputs that no later kernel
            # consumes, plus any program-level declared outputs (compiler
            # metadata) — cross-kernel intermediates stay locals.
            declared = _program_meta_outputs(program)
            outputs = sorted((kernel_outputs - consumed)
                             | (declared & produced))
        self.outputs = tuple(t for t in outputs)
        #: Outputs whose producing expression may ALIAS another array (an
        #: identity/cast rename of an arena-backed intermediate, a
        #: reshape/transpose view from a barrier kernel, a pass-2 result
        #: left in an arena buffer).  These are materialised with a copy at
        #: publish time — an aliased env output would be silently
        #: overwritten by the plan's next execution reusing the same arena
        #: buffers.
        self.maybe_alias: set[str] = set()
        for t in self.outputs:
            if t not in produced and t not in self.program_inputs:
                raise CodegenError(
                    f"program {program.name!r}: output tensor {t!r} is "
                    f"never produced by any op")

    # -- small emission helpers ---------------------------------------

    def emit(self, line: str, indent: int = 1) -> None:
        self.lines.append("    " * indent + line)

    def new_site(self) -> int:
        self.site += 1
        return self.site - 1

    def load(self, t: str, indent: int = 1) -> None:
        """Bind a program input from the env on first use."""
        if t in self.defined:
            return
        self.emit(f"{_var(t)} = env[{t!r}]", indent)
        self.defined.add(t)

    def buf(self, t: str, shape_expr: str, *, published: bool) -> str:
        """Allocation expression for a full-tensor result buffer."""
        if published:
            return f"np.empty({shape_expr}, dtype=_DT)"
        return f"_A.get({self.new_site()}, {shape_expr})"

    # -- program assembly ---------------------------------------------

    def generate(self) -> tuple[str, list[LoweredKernel]]:
        for kernel in self.program.kernels:
            start = len(self.lines)
            kind = self.emit_kernel(kernel)
            self.segments.append(LoweredKernel(
                name=kernel.name, kind=kind,
                source="\n".join(self.lines[start:])))
        self.emit("# publish program outputs")
        for t in self.outputs:
            if t in self.program_inputs:
                continue  # already present in env (fed through)
            if t in self.maybe_alias:
                # Values are identical; the copy severs the alias so the
                # published array survives the next call's buffer reuse.
                self.emit(f"env[{t!r}] = np.array({_var(t)}, dtype=_DT)")
            else:
                self.emit(f"env[{t!r}] = {_var(t)}")
        source = _PRELUDE + "\n".join(self.lines) + "\n"
        return source, self.segments

    def emit_kernel(self, kernel: KernelSchedule) -> str:
        graph = kernel.exec_graph
        self.emit(f"# --- kernel {kernel.name}"
                  f" ({'temporal' if kernel.plan else 'plain'}) ---")
        if kernel.meta.get("barrier"):
            return self.emit_barrier(kernel)
        # For ``dying``: arena locals of this scope, what outlives the
        # kernel, each tensor's last reader (set per scope; none: no reuse).
        self.owned: set[str] = set()
        self.keep = self.later_consumed(kernel) | set(self.outputs)
        self.last_reader: dict[str, str] = {}
        for t in graph.output_tensors:
            if t not in set(graph.input_tensors) | \
                    {op.output for op in graph.ops}:
                raise CodegenError(
                    f"kernel {kernel.name!r}: output tensor {t!r} is "
                    f"never produced by any op")
        if kernel.plan is None:
            return self.emit_plain(kernel)
        return self.emit_loopnest(kernel)

    def emit_barrier(self, kernel: KernelSchedule) -> str:
        graph = kernel.exec_graph
        sizes = {d: graph.dims.size(d) for d in graph.dims.names()}
        op = graph.ops[0]
        src, dst = op.inputs[0], op.output
        self.load(src)
        if op.kind == "reshape":
            shape = tuple(sizes[d] for d in op.output_axes)
            self.emit(f"{_var(dst)} = {_var(src)}.reshape({shape})")
        elif op.kind == "transpose":
            self.emit(f"{_var(dst)} = np.transpose({_var(src)}, "
                      f"{tuple(op.attrs['perm'])})")
        else:
            self.emit(f"{_var(dst)} = {_var(src)}")
        if dst in self.outputs:
            self.maybe_alias.add(dst)
        self.defined.add(dst)
        return "barrier"

    # -- blocked matmul ------------------------------------------------

    @staticmethod
    def blocked_dims(kernel: KernelSchedule, op: Op, sizes: dict,
                     cfg=None) -> list[tuple[str, int]]:
        """Spatially blocked gemm-free dims of a matmul's output (at
        ``cfg``, default the kernel's): the dims along which the
        interpreter's blocking must be replayed."""
        cfg = cfg or kernel.effective_config()
        free = gemm_free_dims(op.input_axes[0], op.input_axes[1],
                              op.output_axes)
        out = []
        for d in op.output_axes:
            if d not in free or d not in kernel.spatial_dims:
                continue
            b = cfg.block_of(d)
            if b is not None and 0 < b < sizes[d]:
                out.append((d, b))
        return out

    def emit_op(self, kernel: KernelSchedule, op: Op, sizes: dict,
                names, shape_of, indent: int, published: bool,
                tsub: tuple | None = None) -> None:
        """One op into an arena buffer (a fresh array when published); a
        matmul replays interpreter blocking along its free dims.

        ``tsub`` is ``(tdim, tile_size)`` when emitting inside a tile
        loop whose tiles all have the same static size (``tile_size`` is
        ``None`` for ragged loops, which forces the helper-call path).
        """
        nm = names or _var
        blocked = op.kind == "matmul" and self.blocked_dims(kernel, op, sizes)
        v = nm(op.output)
        if not blocked:
            out_expr = (None if published
                        else self.dying(kernel.exec_graph, op, nm)
                        or f"_A.get({self.new_site()}, "
                           f"{shape_of(op.output_axes)})")
            expr, used = _op_call(kernel.exec_graph, op, names, out_expr)
            self.emit(f"{v} = {expr}", indent)
            if used:
                self.owned.add(v)
            elif op.kind in ("identity", "cast"):   # ``v`` is its operand
                self.owned.difference_update(map(nm, op.inputs))
                if published:
                    self.maybe_alias.add(op.output)
            return
        if self._emit_matmul_inline(op, sizes, nm, indent, published,
                                    blocked, tsub):
            self.owned.add(v)
            return
        # One batched BLAS call replaying the interpreter's per-block
        # gemms (see matmul_blocked for the bitwise argument).
        tail = ("" if published else
                f", out=_A.get({self.new_site()}, "
                f"{shape_of(op.output_axes)})")
        self.emit(f"{v} = _mmb({nm(op.inputs[0])}, {nm(op.inputs[1])}, "
                  f"{tuple(op.input_axes[0])!r}, "
                  f"{tuple(op.input_axes[1])!r}, "
                  f"{tuple(op.output_axes)!r}, "
                  f"{tuple(blocked)!r}{tail})", indent)

    def dying(self, graph: DataflowGraph, op: Op, nm) -> str | None:
        """An operand's local ``op`` may write its result into: an arena
        buffer of this scope, of the output's shape, that ``op`` reads
        last (rule 4 of docs/runtime.md)."""
        if not _tdim_elementwise(op):
            return None
        for t in op.inputs:
            if (nm(t) in self.owned and t not in self.keep
                    and self.last_reader.get(t) == op.name
                    and tuple(graph.tensors[t].dims) == tuple(op.output_axes)):
                return nm(t)
        return None

    def _emit_matmul_inline(self, op: Op, sizes: dict, nm, indent: int,
                            published: bool, blocked, tsub) -> bool:
        """Emit a blocked matmul as inline view surgery + one np.matmul.

        Operand shapes are static at codegen time, so the batched-gemm
        plan (the exact transposes/reshapes ``matmul_blocked`` would
        perform) can be baked into the source — same array operations in
        the same order, zero per-call planning.  Only the identity-layout
        fast path is inlined; anything needing a post-gemm interleave
        keeps the helper call.
        """
        tdim, tval = tsub if tsub else (None, None)
        a_axes = tuple(op.input_axes[0])
        b_axes = tuple(op.input_axes[1])
        out_axes = tuple(op.output_axes)

        def static_shape(axes):
            shp = []
            for d in axes:
                if d == tdim:
                    if tval is None:
                        return None
                    shp.append(tval)
                else:
                    shp.append(sizes[d])
            return tuple(shp)

        a_shape = static_shape(a_axes)
        b_shape = static_shape(b_axes)
        if a_shape is None or b_shape is None:
            return False
        plan = _blocked_plan(a_axes, b_axes, out_axes, tuple(blocked),
                             a_shape, b_shape)
        if plan[0] != "batched":
            return False
        (_tag, ap0, ash1, ap1, ash2, bp0, bsh1, bp1, bsh2, c_shape,
         _expanded, _perm, identity_perm, _inter, final_shape, _out_perm,
         identity_out) = plan
        if not (identity_perm and identity_out):
            return False

        def opnd(expr, shape, p0, sh1, p1, sh2):
            cur = tuple(shape[i] for i in p0)
            if p0 != tuple(range(len(p0))):
                expr = f"{expr}.transpose({p0})"
            if sh1 != cur:
                expr = f"{expr}.reshape({sh1})"
                cur = sh1
            if p1 != tuple(range(len(p1))):
                expr = f"{expr}.transpose({p1})"
                cur = tuple(cur[i] for i in p1)
            if sh2 != cur:
                expr = f"{expr}.reshape({sh2})"
            return expr

        a_expr = opnd(nm(op.inputs[0]), a_shape, ap0, ash1, ap1, ash2)
        b_expr = opnd(nm(op.inputs[1]), b_shape, bp0, bsh1, bp1, bsh2)
        v = nm(op.output)
        if published:
            self.emit(f"{v} = np.empty({final_shape}, dtype=_DT)", indent)
        else:
            self.emit(f"{v} = _A.get({self.new_site()}, {final_shape})",
                      indent)
        tgt = f"{v}.reshape({c_shape})" if c_shape != final_shape else v
        self.emit(f"np.matmul({a_expr}, {b_expr}, out={tgt})", indent)
        return True

    # -- plain (vector) kernels ---------------------------------------

    def emit_plain(self, kernel: KernelSchedule) -> str:
        graph = kernel.exec_graph
        sizes = {d: graph.dims.size(d) for d in graph.dims.names()}
        published = set(self.outputs)

        def shape_of(dims) -> str:
            inner = ", ".join(str(sizes[d]) for d in dims)
            return f"({inner},)" if len(dims) == 1 else f"({inner})"

        # Schedules can come from disk: a read of a tensor nothing
        # defines is an error here, not a NameError when the plan runs.
        self.last_reader = {t: op.name for op in graph.topological_ops()
                            for t in op.inputs}
        for op in graph.topological_ops():
            for t in op.inputs:
                if t in self.program_inputs:
                    self.load(t)
                elif t not in self.defined:
                    raise CodegenError(
                        f"kernel {kernel.name!r}: op {op.name!r} reads "
                        f"undefined tensor {t!r}")
            self.emit_op(kernel, op, sizes, None, shape_of, 1,
                         op.output in published)
            self.defined.add(op.output)
        return "vector"

    # -- temporal (loopnest) kernels ----------------------------------

    def emit_loopnest(self, kernel: KernelSchedule) -> str:
        graph = kernel.exec_graph
        plan = kernel.plan
        cfg = kernel.effective_config()
        sizes = {d: graph.dims.size(d) for d in graph.dims.names()}
        published = set(self.outputs)
        tdim = plan.dim
        tsize = sizes[tdim]
        tile = cfg.tile or tsize
        tile_ops = [graph.op(n) for n in plan.tile_op_names]
        stages = {s.op_name: s for s in plan.stages}
        stage_outputs = {s.output for s in plan.stages}
        referenced: set[str] = set()
        for stg in plan.stages:
            referenced.update(stg.update.referenced_aggs())
        #: factor several stages of a tile share -> the local it is bound to
        self.bound: dict = {}

        def shape_of(dims, tvar: str | None = None) -> str:
            parts = [tvar if (tvar and d == tdim) else str(sizes[d])
                     for d in dims]
            inner = ", ".join(parts)
            return f"({inner},)" if len(parts) == 1 else f"({inner})"

        # Aggregate init: arena for private aggs, fresh for published.
        for s in plan.stages:
            dims = graph.tensors[s.output].dims
            v = _var(s.output)
            if not dims:
                self.emit(f"{v} = _S({_INIT[s.combiner]})")
            elif s.output in published:
                self.emit(f"{v} = np.full({shape_of(dims)}, "
                          f"{_INIT[s.combiner]}, dtype=_DT)")
            else:
                self.emit(f"{v} = _A.fill({self.new_site()}, "
                          f"{shape_of(dims)}, {_INIT[s.combiner]})")
            self.defined.add(s.output)

        # Hoist tile-invariant work: loads of tdim-free inputs, then ops
        # whose transitive deps are all tile-invariant (they were
        # recomputed per tile with identical inputs — same bits, once).
        invariant: set[str] = set()
        for op in tile_ops:
            for t in op.inputs:
                if tdim not in graph.tensors[t].dims \
                        and t not in stage_outputs:
                    if t in self.program_inputs:
                        self.load(t)
                    if t in self.defined:
                        invariant.add(t)
        hoisted_ops: set[str] = set()
        for op in tile_ops:
            if op.name in stages or tdim in op.output_axes:
                continue
            if not all(t in invariant for t in op.inputs):
                continue
            self.emit_op(kernel, op, sizes, None, shape_of, 1,
                         op.output in published)
            self.defined.add(op.output)
            invariant.add(op.output)
            hoisted_ops.add(op.name)

        # Streamed loads: tensors defined *outside* the loop (program
        # inputs, earlier kernels' results) with a tdim axis get sliced
        # per tile; tile-phase op outputs are produced inside the loop.
        streamed: set[str] = set()
        for op in tile_ops:
            for t in op.inputs:
                if tdim in graph.tensors[t].dims \
                        and t not in stage_outputs:
                    if t in self.program_inputs:
                        self.load(t)
                    if t in self.defined:
                        streamed.add(t)

        names_map = {t: f"t_{_var(t)}" for t in streamed}
        for op in tile_ops:
            if op.name not in hoisted_ops and op.name not in stages:
                names_map.setdefault(op.output, f"t_{_var(op.output)}")
        nm = lambda t: names_map.get(t, _var(t))  # noqa: E731

        # What hoisted ops made, every tile reads: not ``owned`` in here.
        order = tile_ops + [graph.op(n) for n in plan.pass2_op_names]
        self.last_reader = {t: op.name for op in order for t in op.inputs}
        self.owned = set()
        self.emit(f"for _lo_t in range(0, {tsize}, {tile}):")
        ind = 2
        self.emit(f"s_t = slice(_lo_t, min(_lo_t + {tile}, {tsize}))", ind)
        if tsize % tile:
            self.emit("_nt = s_t.stop - _lo_t", ind)
            tvar = "_nt"
        else:
            tvar = str(tile)
        for s in plan.stages:
            if s.output in referenced:
                dims = graph.tensors[s.output].dims
                v = _var(s.output)
                if not dims:
                    self.emit(f"old_{v} = {v}", ind)
                else:
                    self.emit(f"old_{v} = _A.copy({self.new_site()}, {v})",
                              ind)
        for t in sorted(streamed):
            dims = graph.tensors[t].dims
            idx = ", ".join("s_t" if d == tdim else ":" for d in dims)
            self.emit(f"{nm(t)} = {_var(t)}[{idx}]", ind)

        for op in tile_ops:
            if op.name in hoisted_ops:
                continue
            if op.name in stages:
                s = stages[op.name]
                self.emit_stage(kernel, s, op, sizes, nm, shape_of, tvar,
                                ind)
                continue
            self.emit_op(kernel, op, sizes, nm,
                         lambda dims: shape_of(dims, tvar), ind,
                         published=False,
                         tsub=(tdim, None if tsize % tile else tile))

        # Stage outputs are full tensors; mark them defined program-wide.
        for s in plan.stages:
            self.defined.add(s.output)

        if plan.pass2_op_names:
            self.emit_pass2(kernel, sizes, shape_of)
        return "loopnest"

    def emit_stage(self, kernel: KernelSchedule, s, op: Op, sizes: dict,
                   nm, shape_of, tvar: str, ind: int) -> None:
        """One reduction stage: local result, inlined update, combine."""
        graph = kernel.exec_graph
        v = _var(s.output)
        if op.kind == "matmul" and self.blocked_dims(kernel, op, sizes):
            # Materialise the blocked local gemm under a private name so
            # the combine still sees the pre-update aggregate in ``v``.
            local = f"t_loc_{v}"
            self.emit_op(
                kernel, op, sizes,
                lambda t: local if t == op.output else nm(t),
                lambda dims: shape_of(dims, tvar), ind, published=False,
                tsub=(kernel.plan.dim, None if tvar == "_nt" else int(tvar)))
        else:
            local, _used = _op_call(graph, op, nm)
        dims = graph.tensors[s.output].dims
        if not dims:
            self.emit(f"{v} = " + _COMBINE[s.combiner].format(
                upd=_update_expr(graph, s, nm), local=local), ind)
            return
        if s.output in s.update.referenced_aggs():
            raise CodegenError(f"stage {op.name!r} rescales by its own "
                               f"aggregate: the in-place update would feed "
                               f"on itself")
        # Three-address update: every product and shift of ``_update_expr``
        # is written back into the aggregate (same operands, order and
        # rounding, no aggregate-sized temporary), and the combine uses
        # the ufunc matching the interpreter's combiner bit for bit.
        terms = [("np.multiply", self.factor(kernel, f, dims, sizes, nm, ind))
                 for f in s.update.factors]
        terms += [("np.add", _offset_expr(graph, o, dims, nm))
                  for o in s.update.offsets]
        chain = [f"{fn}({v}, {term}, out={v})" for fn, term in terms]
        fn = {"sum": "np.add", "max": "np.maximum",
              "min": "np.minimum"}[s.combiner]
        chain.append(f"{v} = {fn}({v}, {local}, out={v})")
        self.emit("; ".join(chain), ind)
        # A bound factor is stale once its aggregate moves.
        self.bound = {f: n for f, n in self.bound.items()
                      if f.agg != s.output}

    def factor(self, kernel: KernelSchedule, f, dims, sizes: dict, nm,
               ind: int) -> str:
        """A factor broadcast over ``dims``; one that several stages of a
        tile apply is bound to a local where the first of them runs."""
        graph = kernel.exec_graph
        own = graph.tensors[f.agg].dims
        shared = sum(f in s.update.factors for s in kernel.plan.stages) > 1
        one = None
        if f.func != "exp" and f not in self.bound:
            shape = tuple(sizes[d] if d in own else 1
                          for d in (own if shared else dims))
            one = f"_A.fill({self.new_site()}, {shape}, 1.0)"
        if not shared:
            return _factor_expr(graph, f, dims, nm, one)
        if f not in self.bound:
            self.bound[f] = f"_f{self.new_site()}"
            self.emit(f"{self.bound[f]} = "
                      + _factor_expr(graph, f, own, nm, one), ind)
        return _axis_expr(graph, f.agg, dims, self.bound[f])

    def emit_pass2(self, kernel: KernelSchedule, sizes: dict,
                   shape_of) -> None:
        graph = kernel.exec_graph
        plan = kernel.plan
        cfg = kernel.effective_config()
        tdim = plan.dim
        tsize = sizes[tdim]
        tile = cfg.tile or tsize
        published = set(self.outputs)
        p2_ops = [graph.op(n) for n in plan.pass2_op_names]
        later = self.later_consumed(kernel)

        # Pass-2 may only read kernel/program inputs, aggregates, earlier
        # kernels' results, and other pass-2 outputs — tile-phase locals
        # are gone by the time the epilogue runs.
        avail = (self.defined | self.program_inputs
                 | {o.output for o in p2_ops})
        for op in p2_ops:
            for t in op.inputs:
                if t not in avail:
                    raise CodegenError(
                        f"pass-2 op {op.name!r} reads tile-phase local "
                        f"{t!r}")

        slab = all(_tdim_elementwise(op) for op in p2_ops)
        if slab:
            # Pure elementwise epilogue: the tile loop collapses into
            # whole-axis slab operations — bitwise-identical since every
            # output point depends only on its own slice coordinates.
            self.emit("# pass-2 epilogue, vectorised over tiles")
            for op in p2_ops:
                for t in op.inputs:
                    if t in self.program_inputs:
                        self.load(t)
                self.emit_op(kernel, op, sizes, None, shape_of, 1,
                             op.output in published)
                self.defined.add(op.output)
            return

        # General pass-2: per-tile loop; outputs with a tdim axis that
        # are needed beyond this kernel are assembled into full buffers.
        assembled: dict[str, str] = {}
        for op in p2_ops:
            t = op.output
            if tdim in graph.tensors[t].dims and (
                    t in published or t in later):
                v = _var(t)
                self.emit(f"{v} = {self.buf(t, shape_of(graph.tensors[t].dims), published=t in published)}")
                assembled[t] = v
        streamed: set[str] = set()
        for op in p2_ops:
            for t in op.inputs:
                if t in self.program_inputs:
                    self.load(t)
                if tdim in graph.tensors[t].dims \
                        and t not in {o.output for o in p2_ops}:
                    streamed.add(t)
        names_map = {t: f"p_{_var(t)}" for t in streamed}
        for op in p2_ops:
            names_map[op.output] = f"p_{_var(op.output)}"
        nm = lambda t: names_map.get(t, _var(t))  # noqa: E731

        # With no temporal axis on any operand or result every tile would
        # recompute the same values: the body runs once, outside a loop.
        ind = 1
        if streamed or any(tdim in op.output_axes for op in p2_ops):
            self.emit(f"for _lo_t in range(0, {tsize}, {tile}):")
            ind = 2
            self.emit(f"s_t = slice(_lo_t, min(_lo_t + {tile}, {tsize}))",
                      ind)
            self.emit("_nt = s_t.stop - _lo_t", ind)
        for t in sorted(streamed):
            dims = graph.tensors[t].dims
            idx = ", ".join("s_t" if d == tdim else ":" for d in dims)
            self.emit(f"{nm(t)} = {_var(t)}[{idx}]", ind)
        for op in p2_ops:
            self.emit_op(kernel, op, sizes, nm,
                         lambda dims: shape_of(dims, "_nt"), ind,
                         published=False,
                         tsub=(tdim, None if tsize % tile else tile))
            t = op.output
            if t in assembled:
                dims = graph.tensors[t].dims
                idx = ", ".join("s_t" if d == tdim else ":" for d in dims)
                self.emit(f"{assembled[t]}[{idx}] = {nm(t)}", ind)
        # Outputs without a tdim axis take their final-tile value.
        for op in p2_ops:
            t = op.output
            if t not in assembled and (t in published or t in later):
                self.emit(f"{_var(t)} = {nm(t)}")
                if t in published:
                    # The final tile's value sits in an arena buffer.
                    self.maybe_alias.add(t)
        for op in p2_ops:
            self.defined.add(op.output)

    def later_consumed(self, kernel: KernelSchedule) -> set:
        """Tensors consumed by kernels after ``kernel`` in the program."""
        out: set = set()
        seen = False
        for k in self.program.kernels:
            if k is kernel:
                seen = True
                continue
            if seen:
                out.update(k.exec_graph.input_tensors)
        return out


def _program_meta_outputs(program: ProgramSchedule) -> set:
    """Program-level outputs recorded by the compiler in schedule meta
    (stored as a comma-joined string so it survives serialisation)."""
    raw = program.meta.get("outputs")
    if not raw:
        return set()
    return {t for t in str(raw).split(",") if t}


def generate_fused_program(program: ProgramSchedule, dtype=np.float64,
                           outputs=None) -> FusedProgram:
    """Lower a whole program schedule into ONE exec-compiled callable.

    The returned callable mutates a tensor env in place: it reads the
    program's inputs, keeps every intermediate as a Python local (arena-
    backed where safe), and publishes only the program's outputs — no
    per-kernel dispatch, no intermediate escapes.
    """
    emitter = _FusedEmitter(program, dtype, outputs)
    source, segments = emitter.generate()
    arena = Arena(emitter.dtype)
    dt = emitter.dtype
    try:
        from scipy.special import erf as _erf
    except ImportError:  # pragma: no cover
        from math import erf as _m_erf
        _erf = np.vectorize(_m_erf)
    namespace = {"np": np, "_erf": _erf, "_mm": matmul_blas,
                 "_mmb": matmul_blocked, "_A": arena, "_DT": dt,
                 "_S": dt.type}
    exec(compile(source, f"<fused:{program.name}>", "exec"), namespace)
    return FusedProgram(
        name=program.name, source=source, fn=namespace["program"],
        segments=segments, inputs=tuple(sorted(emitter.program_inputs)),
        outputs=emitter.outputs, arena=arena)
