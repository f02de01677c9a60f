"""Tests for the general einsum operator (Table 1's 'potential' row)."""

import numpy as np
import pytest

from repro.hw import AMPERE
from repro.ir import GraphBuilder
from repro.ir.ops import make_einsum
from repro.ir.traits import dependency_profile
from repro.pipeline import compile_for
from repro.runtime.executor import execute_schedule
from repro.runtime.kernels import evaluate_op, execute_graph_reference, random_feeds
from tests.hw.sweep import SweepSimulator


class TestEinsumConstruction:
    def test_gemm_special_case(self):
        op = make_einsum("e", "A", ("m", "k"), "B", ("n", "k"),
                         "C", ("m", "n"))
        assert op.reduce_dims == ("k",)
        assert op.is_contraction

    def test_double_contraction(self):
        op = make_einsum("e", "A", ("m", "k", "j"), "B", ("n", "k", "j"),
                         "C", ("m", "n"))
        assert set(op.reduce_dims) == {"k", "j"}

    def test_outer_product_has_no_reduce(self):
        op = make_einsum("e", "A", ("m",), "B", ("n",), "C", ("m", "n"))
        assert op.reduce_dims == ()
        assert op.reduce_kind is None

    def test_table1_potential_dependencies(self):
        # Einsum's dependency classes depend on the axis maps (the paper
        # marks all three as 'potential presence').
        gemm = make_einsum("e", "A", ("m", "k"), "B", ("n", "k"),
                           "C", ("m", "n"))
        prof = dependency_profile(gemm)
        assert prof.one_to_all and prof.all_to_one and not prof.one_to_one
        ew = make_einsum("e2", "A", ("m", "n"), "B", ("m", "n"),
                         "C", ("m", "n"))
        prof2 = dependency_profile(ew)
        assert prof2.one_to_one and not prof2.all_to_one


class TestEinsumNumerics:
    def test_double_contraction_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 3, 5))
        b = rng.standard_normal((6, 3, 5))
        op = make_einsum("e", "A", ("m", "k", "j"), "B", ("n", "k", "j"),
                         "C", ("m", "n"))
        out = evaluate_op(op, {"A": a, "B": b})
        assert np.allclose(out, np.einsum("mkj,nkj->mn", a, b))

    def test_outer_product(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal(4)
        b = rng.standard_normal(6)
        op = make_einsum("e", "A", ("m",), "B", ("n",), "C", ("m", "n"))
        assert np.allclose(evaluate_op(op, {"A": a, "B": b}),
                           np.outer(a, b))


class TestEinsumScheduling:
    def _graph(self):
        b = GraphBuilder("es")
        a = b.input("A", [("m", 24), ("k", 8), ("j", 6)])
        w = b.input("B", [("n", 16), ("k", 8), ("j", 6)])
        b.einsum(a, w, out_dims=("m", "n"), out_name="C")
        return b.build()

    def test_compiles_and_validates(self):
        graph = self._graph()
        sched, _ = compile_for(graph, AMPERE)
        feeds = random_feeds(graph, seed=2)
        ref = execute_graph_reference(graph, feeds)
        env = execute_schedule(sched, feeds)
        np.testing.assert_allclose(env["C"], ref["C"], atol=1e-9)

    def test_einsum_chain_with_softmax_fuses(self):
        """A double-contraction attention variant still fuses with UTA."""
        b = GraphBuilder("es_attn")
        q = b.input("Q", [("m", 32), ("k", 8), ("j", 4)])
        kk = b.input("K", [("l", 40), ("k", 8), ("j", 4)])
        v = b.input("V", [("l", 40), ("dv", 16)])
        qk = b.einsum(q, kk, out_dims=("m", "l"), out_name="QK")
        p = b.softmax(qk, dim="l")
        b.matmul(p, v, reduce_dim="l", out_name="Out")
        graph = b.build()
        sched, _ = compile_for(graph, AMPERE)
        assert sched.num_kernels == 1
        assert sched.kernels[0].plan.uses_uta
        feeds = random_feeds(graph, seed=5)
        ref = execute_graph_reference(graph, feeds)
        env = execute_schedule(sched, feeds)
        np.testing.assert_allclose(env["Out"], ref["Out"], atol=1e-9)


class TestConfigSweep:
    def test_sweep_sorted_and_complete(self, small_mha):
        sched, _ = compile_for(small_mha, AMPERE)
        kernel = sched.kernels[0]
        sim = SweepSimulator(AMPERE)
        sweep = sim.sweep_configs(kernel)
        assert len(sweep) == len(kernel.search_space)
        times = [t for _c, t in sweep]
        assert times == sorted(times)
        # The tuner's chosen config is the sweep's best.
        assert sweep[0][1] == pytest.approx(
            sim.kernel_time(kernel, kernel.config))
