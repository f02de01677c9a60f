"""Tests for the numpy reference kernels (operator semantics)."""

import tracemalloc

import numpy as np
import pytest

from repro.ir import GraphBuilder
from repro.ir.ops import make_binary, make_matmul, make_reduce, make_scalar, make_unary
from repro.runtime.kernels import (
    KernelError,
    evaluate_op,
    execute_graph_reference,
    random_feeds,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestMatmulKernel:
    def test_plain_gemm(self, rng):
        a = rng.standard_normal((4, 3))
        b = rng.standard_normal((5, 3))
        op = make_matmul("mm", "A", ("m", "k"), "B", ("n", "k"),
                         "C", ("m", "n"), "k")
        out = evaluate_op(op, {"A": a, "B": b})
        assert np.allclose(out, a @ b.T)

    def test_batched_gemm(self, rng):
        a = rng.standard_normal((2, 4, 3))
        b = rng.standard_normal((2, 5, 3))
        op = make_matmul("mm", "A", ("b", "m", "k"), "B", ("b", "n", "k"),
                         "C", ("b", "m", "n"), "k")
        out = evaluate_op(op, {"A": a, "B": b})
        assert np.allclose(out, np.einsum("bmk,bnk->bmn", a, b))

    def test_attention_value_gemm(self, rng):
        p = rng.standard_normal((4, 6))
        v = rng.standard_normal((6, 5))
        op = make_matmul("mm", "P", ("m", "l"), "V", ("l", "d"),
                         "O", ("m", "d"), "l")
        out = evaluate_op(op, {"P": p, "V": v})
        assert np.allclose(out, p @ v)


class TestReduceKernels:
    @pytest.mark.parametrize("kind,ref", [
        ("sum", np.sum), ("max", np.max), ("min", np.min), ("mean", np.mean),
    ])
    def test_reduce_last_dim(self, rng, kind, ref):
        x = rng.standard_normal((4, 6))
        op = make_reduce("r", kind, "X", ("m", "n"), "Y", "n")
        assert np.allclose(evaluate_op(op, {"X": x}), ref(x, axis=1))

    def test_reduce_middle_dim(self, rng):
        x = rng.standard_normal((3, 4, 5))
        op = make_reduce("r", "sum", "X", ("a", "b", "c"), "Y", "b")
        assert np.allclose(evaluate_op(op, {"X": x}), x.sum(axis=1))


class TestElementwiseKernels:
    @pytest.mark.parametrize("kind,fn", [
        ("exp", np.exp),
        ("sqrt", lambda x: np.sqrt(np.abs(x) + 1)),
        ("relu", lambda x: np.maximum(x, 0)),
        ("tanh", np.tanh),
        ("square", np.square),
        ("neg", np.negative),
        ("abs", np.abs),
    ])
    def test_unary(self, rng, kind, fn):
        x = rng.standard_normal((4, 5))
        if kind == "sqrt":
            x = np.abs(x) + 1
            fn = np.sqrt
        op = make_unary("u", kind, "X", ("m", "n"), "Y")
        assert np.allclose(evaluate_op(op, {"X": x}), fn(x))

    def test_gelu_matches_erf_form(self, rng):
        from scipy.special import erf
        x = rng.standard_normal(16)
        op = make_unary("u", "gelu", "X", ("m",), "Y")
        expected = 0.5 * x * (1 + erf(x / np.sqrt(2)))
        assert np.allclose(evaluate_op(op, {"X": x}), expected)

    def test_silu(self, rng):
        x = rng.standard_normal(16)
        op = make_unary("u", "silu", "X", ("m",), "Y")
        assert np.allclose(evaluate_op(op, {"X": x}),
                           x / (1 + np.exp(-x)))

    def test_binary_broadcast_row_vector(self, rng):
        x = rng.standard_normal((4, 6))
        v = rng.standard_normal(4)
        op = make_binary("b", "sub", "X", ("m", "n"), "V", ("m",),
                         "Y", ("m", "n"))
        assert np.allclose(evaluate_op(op, {"X": x, "V": v}),
                           x - v[:, None])

    def test_binary_broadcast_col_vector(self, rng):
        x = rng.standard_normal((4, 6))
        v = rng.standard_normal(6)
        op = make_binary("b", "add", "X", ("m", "n"), "V", ("n",),
                         "Y", ("m", "n"))
        assert np.allclose(evaluate_op(op, {"X": x, "V": v}), x + v[None, :])

    def test_binary_axis_reorder(self, rng):
        x = rng.standard_normal((4, 6))
        y = rng.standard_normal((6, 4))
        op = make_binary("b", "add", "X", ("m", "n"), "Y", ("n", "m"),
                         "Z", ("m", "n"))
        assert np.allclose(evaluate_op(op, {"X": x, "Y": y}), x + y.T)

    def test_scalar_ops(self, rng):
        x = rng.standard_normal(8)
        for kind, expected in [("mul", x * 2.5), ("add", x + 2.5),
                               ("rsub", 2.5 - x), ("rdiv", 2.5 / x)]:
            op = make_scalar("s", kind, "X", ("m",), "Y", 2.5)
            assert np.allclose(evaluate_op(op, {"X": x}), expected)

    def test_where_mask(self, rng):
        x = rng.standard_normal((3, 4))
        m = (rng.random((3, 4)) > 0.5).astype(float)
        op = make_binary("w", "where_mask", "X", ("m", "n"),
                         "M", ("m", "n"), "Y", ("m", "n"))
        out = evaluate_op(op, {"X": x, "M": m})
        assert np.all(out[m == 0] == -np.inf)
        assert np.allclose(out[m != 0], x[m != 0])


class TestBarrierKernels:
    def test_reshape(self, rng):
        from repro.ir.ops import make_barrier
        x = rng.standard_normal((4, 6))
        op = make_barrier("r", "reshape", "X", ("m", "n"), "Y", ("a", "b"))
        out = evaluate_op(op, {"X": x}, sizes={"a": 8, "b": 3})
        assert out.shape == (8, 3)

    def test_reshape_without_sizes_raises(self, rng):
        from repro.ir.ops import make_barrier
        op = make_barrier("r", "reshape", "X", ("m",), "Y", ("a",))
        with pytest.raises(KernelError):
            evaluate_op(op, {"X": rng.standard_normal(4)})

    def test_transpose(self, rng):
        from repro.ir.ops import make_barrier
        x = rng.standard_normal((4, 6))
        op = make_barrier("t", "transpose", "X", ("m", "n"), "Y", ("n", "m"),
                          perm=(1, 0))
        assert np.allclose(evaluate_op(op, {"X": x}), x.T)


class TestGraphReference:
    def test_softmax_graph_matches_numpy(self, small_softmax):
        feeds = random_feeds(small_softmax, seed=1)
        out = execute_graph_reference(small_softmax, feeds)["P"]
        x = feeds["X"]
        e = np.exp(x - x.max(axis=1, keepdims=True))
        assert np.allclose(out, e / e.sum(axis=1, keepdims=True))

    def test_layernorm_graph_matches_numpy(self, small_ln):
        feeds = random_feeds(small_ln, seed=2)
        name = small_ln.output_tensors[0]
        out = execute_graph_reference(small_ln, feeds)[name]
        x, g, b = feeds["X"], feeds["G"], feeds["B"]
        mu = x.mean(axis=1, keepdims=True)
        var = ((x - mu) ** 2).mean(axis=1, keepdims=True)
        expected = (x - mu) / np.sqrt(var + 1e-5) * g + b
        assert np.allclose(out, expected)

    def test_mha_graph_matches_numpy(self, small_mha):
        feeds = random_feeds(small_mha, seed=3)
        out = execute_graph_reference(small_mha, feeds)["Out"]
        q, k, v = feeds["Q"], feeds["K"], feeds["V"]
        s = q @ k.T
        p = np.exp(s - s.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        assert np.allclose(out, p @ v)

    def test_missing_feed_raises(self, small_softmax):
        with pytest.raises(KernelError, match="missing feed"):
            execute_graph_reference(small_softmax, {})

    def test_wrong_shape_raises(self, small_softmax):
        with pytest.raises(KernelError, match="shape"):
            execute_graph_reference(small_softmax,
                                    {"X": np.zeros((2, 2))})

    def test_random_feeds_deterministic(self, small_softmax):
        a = random_feeds(small_softmax, seed=5)
        b = random_feeds(small_softmax, seed=5)
        assert np.array_equal(a["X"], b["X"])


def _keep_everything(graph, feeds):
    """The reference as it was before it freed dead tensors."""
    sizes = {d: graph.dims.size(d) for d in graph.dims.names()}
    env = {t: np.asarray(feeds[t], dtype=np.float64)
           for t in graph.input_tensors}
    for op in graph.topological_ops():
        env[op.output] = np.asarray(evaluate_op(op, env, sizes),
                                    dtype=np.float64)
    return env


class TestReferenceLiveness:
    """``execute_graph_reference`` keeps live tensors, not all tensors."""

    def test_peak_is_bounded_by_the_live_set(self):
        from repro.models import mha_graph

        graph = mha_graph(1, 8, 256, 256, 64)
        feeds = random_feeds(graph, seed=0)
        largest = max(int(np.prod(spec.shape(graph.dims))) * 8
                      for spec in graph.tensors.values())
        tracemalloc.start()
        try:
            out = execute_graph_reference(graph, feeds)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert set(out) == set(graph.output_tensors)
        assert peak < 3 * largest, (peak, largest)    # was 5.3x; now 2.0x

    def test_answers_and_feeds_are_untouched_on_the_spine_subgraphs(self):
        from repro.models import (layernorm_graph, lstm_cell_graph,
                                  mha_graph, mlp_graph, softmax_gemm_graph)

        for graph in (mlp_graph(8, 256, 64, 64), lstm_cell_graph(64, 128),
                      layernorm_graph(256, 256),
                      mha_graph(1, 8, 128, 128, 64),
                      mha_graph(1, 8, 1, 128, 64),
                      mha_graph(2, 8, 512, 512, 64),
                      softmax_gemm_graph(512, 1024, 64)):
            feeds = random_feeds(graph, seed=4)
            before = {t: arr.copy() for t, arr in feeds.items()}
            out = execute_graph_reference(graph, feeds)
            assert list(feeds) == list(before)
            for t, arr in before.items():
                np.testing.assert_array_equal(feeds[t], arr)
            expected = _keep_everything(graph, feeds)
            assert list(out) == graph.output_tensors
            for t in out:
                np.testing.assert_array_equal(out[t], expected[t])
            del expected, out

    def test_an_output_that_is_also_read_survives(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        e = b.unary("exp", x, out_name="E")
        b.reduce("sum", e, dim="n", out_name="S")
        b.unary("neg", x, out_name="Dead")
        graph = b.build()
        graph.declared_outputs = ["E", "S", "X"]
        feeds = random_feeds(graph, seed=1)
        out = execute_graph_reference(graph, feeds)
        assert list(out) == ["E", "S", "X"]
        np.testing.assert_array_equal(out["E"], np.exp(feeds["X"]))
        np.testing.assert_array_equal(out["X"], feeds["X"])
