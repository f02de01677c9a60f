"""Compiler fuzzing: random dataflow DAGs must compile and run correctly.

The strongest correctness evidence a compiler can have: generate random
graphs mixing element-wise ops, broadcasts, reductions and contractions,
run the whole pipeline (SMG -> slicing -> partitioning -> tuning), execute
the resulting schedule, and require equality with the unfused reference.
Every path — UTA chains, Simple Aggregate, pass-2 epilogues, partition
fallbacks, per-op fallbacks — gets exercised by some generated graph.

Three generator axes go beyond the barrier-free 2-D (m, n) base space:

* an optional third (batch) dimension;
* reshape/transpose layout barriers (compiled via program partitioning);
* float32 execution through the differential oracle, exercising the
  compiled engine's loop nests for temporal kernels below float64 (there
  is no interpreter fallback: every kernel lowers at every dtype).

Oracle-based tests shrink any failing graph to a minimal reproducer and
save it under ``$REPRO_ARTIFACT_DIR`` for CI to upload.
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.hw import AMPERE
from repro.ir import GraphBuilder
from repro.pipeline import compile_for
from repro.runtime.executor import execute_schedule
from repro.runtime.kernels import execute_graph_reference, random_feeds
from repro.runtime.oracle import (
    differential_test,
    save_reproducer,
    shrink_graph,
)

#: Safe element-wise ops (bounded outputs, no domain restrictions).
_SAFE_UNARY = ("tanh", "sigmoid", "relu", "abs", "neg", "identity")
_SAFE_BINARY = ("add", "sub", "maximum", "minimum")


@st.composite
def random_graph(draw, allow_batch=True):
    """A random barrier-free DAG over an (m, n) base space, optionally
    extended by a third batch dimension."""
    m = draw(st.integers(2, 24))
    n = draw(st.integers(2, 24))
    batch = (draw(st.integers(2, 4))
             if allow_batch and draw(st.booleans()) else None)
    b = GraphBuilder("fuzz")
    base_dims = ([("b", batch)] if batch else []) + [("m", m), ("n", n)]
    values = [b.input("X0", base_dims)]
    if draw(st.booleans()):
        values.append(b.input("X1", base_dims))

    n_ops = draw(st.integers(1, 8))
    reduced = []  # reductions over n, broadcastable back
    for i in range(n_ops):
        choice = draw(st.integers(0, 4))
        if choice == 0:  # unary
            src = draw(st.sampled_from(values))
            kind = draw(st.sampled_from(_SAFE_UNARY))
            values.append(b.unary(kind, src))
        elif choice == 1 and len(values) >= 2:  # binary same-shape
            lhs = draw(st.sampled_from(values))
            rhs = draw(st.sampled_from(values))
            kind = draw(st.sampled_from(_SAFE_BINARY))
            values.append(b.binary(kind, lhs, rhs))
        elif choice == 2:  # reduction over n
            src = draw(st.sampled_from(values))
            kind = draw(st.sampled_from(("sum", "max", "mean", "min")))
            reduced.append(b.reduce(kind, src, dim="n"))
        elif choice == 3 and reduced:  # broadcast a reduction back
            src = draw(st.sampled_from(values))
            agg = draw(st.sampled_from(reduced))
            kind = draw(st.sampled_from(("sub", "add", "maximum")))
            values.append(b.binary(kind, src, agg))
        else:  # scalar op
            src = draw(st.sampled_from(values))
            kind = draw(st.sampled_from(("mul", "add")))
            values.append(b.scalar(kind, src, draw(
                st.floats(-2.0, 2.0, allow_nan=False))))
    # Guarantee a full-rank output so something meaningful is produced.
    b.unary("identity", values[-1], out_name="Fin")
    return b.build()


@st.composite
def random_barrier_graph(draw):
    """A DAG with a layout barrier in the middle: prefix ops over (m, n),
    then a transpose or reshape, then suffix ops over the new space.
    Compiles through program partitioning rather than a single SMG."""
    m = draw(st.integers(2, 12))
    n = draw(st.integers(2, 12))
    b = GraphBuilder("fuzz_barrier")
    val = b.input("X0", [("m", m), ("n", n)])
    for _ in range(draw(st.integers(0, 3))):
        val = b.unary(draw(st.sampled_from(_SAFE_UNARY)), val)
    if draw(st.booleans()):
        val = b.barrier("transpose", val, ("n", "m"), perm=(1, 0))
        reduce_dim = "m"
    else:
        val = b.barrier("reshape", val, [("mn", m * n)])
        reduce_dim = None
    for _ in range(draw(st.integers(0, 3))):
        val = b.unary(draw(st.sampled_from(_SAFE_UNARY)), val)
    if reduce_dim is not None and draw(st.booleans()):
        agg = b.reduce(draw(st.sampled_from(("sum", "max"))), val,
                       dim=reduce_dim)
        val = b.binary("sub", val, agg)
    b.unary("identity", val, out_name="Fin")
    return b.build()


def _report_oracle_failure(graph, result, seed, label):
    """Shrink a failing graph, save it as a CI artifact, and fail loudly."""

    def failing(g):
        return not differential_test(
            g, AMPERE, seed=seed,
            dtype=np.dtype(result.dtype).type).ok

    try:
        shrunk = shrink_graph(graph, failing)
    except Exception:
        shrunk = graph
    saved = ""
    art_dir = os.environ.get("REPRO_ARTIFACT_DIR")
    if art_dir:
        os.makedirs(art_dir, exist_ok=True)
        path = os.path.join(
            art_dir, f"repro-{label}-seed{seed}-{len(shrunk.ops)}ops.json")
        save_reproducer(shrunk, path, meta={
            "seed": seed, "dtype": result.dtype, "label": label})
        saved = f"; reproducer saved to {path}"
    ops = [f"{op.name}:{op.kind}" for op in shrunk.ops]
    pytest.fail(f"oracle mismatch ({label}, seed={seed}): "
                f"{result.render()}\nshrunk to {len(shrunk.ops)} op(s): "
                f"{ops}{saved}")


class TestCompileFuzz:
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    @given(graph=random_graph(), seed=st.integers(0, 1 << 16))
    def test_random_graph_compiles_and_matches_reference(self, graph, seed):
        schedule, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=seed)
        ref = execute_graph_reference(graph, feeds)
        env = execute_schedule(schedule, feeds)
        for name, expected in ref.items():
            np.testing.assert_allclose(
                env[name], expected, atol=1e-8,
                err_msg=f"{name} diverged; schedule:\n"
                        f"{schedule.describe()}")


class TestOracleFuzz:
    """Differential-oracle fuzzing: both engines vs the float64 reference."""

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    @given(graph=random_graph(), seed=st.integers(0, 1 << 16))
    def test_oracle_float32(self, graph, seed):
        """float32 through the interpreter and the compiled engine (which
        lowers temporal kernels to loop nests at every dtype): both must
        match the float64 reference within the dtype-aware tolerance."""
        result = differential_test(graph, AMPERE, seed=seed,
                                   dtype=np.float32)
        if not result.ok:
            _report_oracle_failure(graph, result, seed, "float32")

    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow,
                                     HealthCheck.data_too_large,
                                     HealthCheck.filter_too_much])
    @given(graph=random_barrier_graph(), seed=st.integers(0, 1 << 16))
    def test_oracle_barrier_graphs(self, graph, seed):
        """Graphs with reshape/transpose barriers compile via program
        partitioning; both engines must still match the reference."""
        result = differential_test(graph, AMPERE, seed=seed)
        if not result.ok:
            _report_oracle_failure(graph, result, seed, "barrier")
