"""Tests for the dataflow graph and its builder."""

import pytest

from repro.ir import DataflowGraph, GraphBuilder, GraphError, TensorSpec
from repro.ir.ops import make_unary


class TestGraphBuilder:
    def test_input_registers_dims(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        assert x.dims == ("m", "n")
        assert b.graph.dims.size("n") == 6

    def test_input_with_bare_dim_names(self):
        b = GraphBuilder("g")
        b.input("X", [("m", 4)])
        y = b.input("Y", ["m"])
        assert y.dims == ("m",)

    def test_input_unknown_bare_dim_raises(self):
        b = GraphBuilder("g")
        with pytest.raises(GraphError, match="not registered"):
            b.input("X", ["ghost"])

    def test_matmul_infers_output_dims(self):
        b = GraphBuilder("g")
        a = b.input("A", [("m", 4), ("k", 3)])
        w = b.input("B", [("n", 5), ("k", 3)])
        c = b.matmul(a, w, reduce_dim="k")
        assert set(c.dims) == {"m", "n"}

    def test_binary_broadcast_union_dims(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        v = b.input("V", ["m"])
        out = b.binary("sub", x, v)
        assert out.dims == ("m", "n")

    def test_reduce_drops_dim(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        r = b.reduce("max", x, dim="n")
        assert r.dims == ("m",)

    def test_softmax_composite_is_five_primitives(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        b.softmax(x, dim="n")
        kinds = [op.kind for op in b.graph.ops]
        assert kinds == ["reduce_max", "sub", "exp", "reduce_sum", "div"]

    def test_layernorm_composite_matches_fig10c(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        b.layernorm(x, dim="n")
        kinds = [op.kind for op in b.graph.ops]
        assert kinds[:4] == ["reduce_mean", "sub", "square", "reduce_mean"]
        assert "sqrt" in kinds and "div" in kinds

    def test_scalar_op(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4)])
        y = b.scalar("mul", x, 0.25)
        assert b.graph.producer_of(y.name).attrs["scalar"] == 0.25

    def test_barrier_op(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        y = b.barrier("reshape", x, [("f", 24)])
        assert b.graph.producer_of(y.name).is_barrier

    def test_build_validates(self, small_mha):
        assert len(small_mha.ops) == 7


class TestDataflowGraph:
    def _graph(self):
        b = GraphBuilder("g")
        x = b.input("X", [("m", 4), ("n", 6)])
        e = b.unary("exp", x, out_name="E")
        b.reduce("sum", e, dim="n", out_name="S")
        return b.build()

    def test_inputs_and_outputs(self):
        g = self._graph()
        assert g.input_tensors == ["X"]
        assert g.output_tensors == ["S"]
        assert g.intermediate_tensors == ["E"]

    def test_declared_outputs_override(self):
        g = self._graph()
        g.declared_outputs = ["E", "S"]
        assert set(g.output_tensors) == {"E", "S"}

    def test_producer_and_consumers(self):
        g = self._graph()
        assert g.producer_of("E").kind == "exp"
        assert g.producer_of("X") is None
        assert [op.kind for op in g.consumers_of("E")] == ["reduce_sum"]

    def test_op_lookup(self):
        g = self._graph()
        assert g.op(g.ops[0].name) is g.ops[0]
        with pytest.raises(KeyError):
            g.op("nope")

    def test_topological_order(self, small_mha):
        order = small_mha.topological_ops()
        seen = set(small_mha.input_tensors)
        for op in order:
            assert all(t in seen for t in op.inputs)
            seen.add(op.output)

    def test_shuffled_ops_fall_back_to_the_stable_sort(self, small_mha):
        """An op list that is already topological comes back as is; a
        shuffled one is sorted by repeated sweeps, each keeping the list's
        relative order — what every caller has always received."""
        assert small_mha.topological_ops() == small_mha.ops
        ops = list(small_mha.ops)
        shuffled = DataflowGraph("shuffled", dims=small_mha.dims,
                                 tensors=dict(small_mha.tensors),
                                 ops=ops[::-1])
        expected, ready, pending = [], set(shuffled.input_tensors), ops[::-1]
        while pending:
            rest = []
            for op in pending:
                if all(t in ready for t in op.inputs):
                    expected.append(op)
                    ready.add(op.output)
                else:
                    rest.append(op)
            pending = rest
        assert shuffled.topological_ops() == expected
        assert expected != ops[::-1] and sorted(
            op.name for op in expected) == sorted(op.name for op in ops)
        # Inputs come in first-read order, each once.
        assert small_mha.input_tensors == ["Q", "K", "V"]
        assert shuffled.input_tensors == ["V", "Q", "K"]

    def test_ssa_violation_raises(self):
        g = DataflowGraph("g")
        g.dims.define("m", 4)
        g.tensors["X"] = TensorSpec("X", ("m",))
        g.tensors["Y"] = TensorSpec("Y", ("m",))
        g.add_op(make_unary("u1", "exp", "X", ("m",), "Y"))
        with pytest.raises(GraphError, match="SSA"):
            g.add_op(make_unary("u2", "exp", "X", ("m",), "Y"))

    def test_producers_follow_ops_changed_outside_add_op(self):
        """Rewrites assign or append to ``ops`` directly; the producer
        index behind the SSA check must follow, and the first producer
        wins as in a scan."""
        g = DataflowGraph("g")
        g.dims.define("m", 4)
        for name in ("X", "Y", "Z"):
            g.tensors[name] = TensorSpec(name, ("m",))
        u1 = g.add_op(make_unary("u1", "exp", "X", ("m",), "Y"))
        u2 = make_unary("u2", "exp", "Y", ("m",), "Z")
        g.ops.append(u2)
        assert g.producer_of("Z") is u2
        with pytest.raises(GraphError,
                           match=r"tensor 'Z' written twice \(SSA violated\)"):
            g.add_op(make_unary("u3", "exp", "X", ("m",), "Z"))
        g.ops = [u2]
        assert g.producer_of("Y") is None and g.producer_of("Z") is u2
        g.add_op(u1)
        g.ops.append(make_unary("u4", "exp", "X", ("m",), "Z"))
        assert g.producer_of("Z") is u2 and g.producer_of("Y") is u1

    def test_undefined_tensor_raises(self):
        g = DataflowGraph("g")
        g.dims.define("m", 4)
        g.tensors["Y"] = TensorSpec("Y", ("m",))
        with pytest.raises(GraphError, match="undefined tensor"):
            g.add_op(make_unary("u", "exp", "X", ("m",), "Y"))

    def test_duplicate_tensor_raises(self):
        g = DataflowGraph("g")
        g.dims.define("m", 4)
        g.add_tensor(TensorSpec("X", ("m",)))
        with pytest.raises(GraphError, match="already defined"):
            g.add_tensor(TensorSpec("X", ("m",)))

    def test_tensor_unknown_dim_raises(self):
        g = DataflowGraph("g")
        with pytest.raises(GraphError, match="unknown dim"):
            g.add_tensor(TensorSpec("X", ("m",)))

    def test_missing_producer_detected(self):
        g = DataflowGraph("g")
        g.dims.define("m", 4)
        for name in ("A", "B", "C"):
            g.tensors[name] = TensorSpec(name, ("m",))
        g.ops.append(make_unary("u1", "exp", "B", ("m",), "C"))
        g.ops.append(make_unary("u2", "exp", "C", ("m",), "B"))
        with pytest.raises(GraphError, match="cycle or missing"):
            g.topological_ops()

    def test_validate_checks_axis_arity(self):
        g = DataflowGraph("g")
        g.dims.define("m", 4)
        g.dims.define("n", 3)
        g.tensors["X"] = TensorSpec("X", ("m", "n"))
        g.tensors["Y"] = TensorSpec("Y", ("m",))
        g.ops.append(make_unary("u", "exp", "X", ("m",), "Y"))
        with pytest.raises(GraphError, match="axis map"):
            g.validate()

    def test_total_flops_positive(self, small_mha):
        assert small_mha.total_flops() > 0

    def test_fusion_group_tags_survive(self, small_ln):
        tags = {op.attrs.get("fusion_group") for op in small_ln.ops}
        assert "layernorm" in tags
