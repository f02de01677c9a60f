"""Differential-oracle tests: NaN-safe comparison, shrinking, reproducers."""

import numpy as np
import pytest

from repro.hw import AMPERE
from repro.ir import GraphBuilder
from repro.runtime.oracle import (
    DTYPE_TOLERANCES,
    differential_test,
    graph_from_dict,
    graph_to_dict,
    load_reproducer,
    nan_safe_max_abs_err,
    outputs_match,
    save_reproducer,
    shrink_graph,
    shrink_to_reproducer,
    tolerance_for,
)


class TestNanSafeMaxAbsErr:
    def test_finite_arrays(self):
        err = nan_safe_max_abs_err(np.array([1.0, 2.0]),
                                   np.array([1.0, 2.5]))
        assert err == pytest.approx(0.5)

    def test_nan_in_got_propagates(self):
        """The bug class this kills: builtin max(0.0, nan) returns 0.0,
        so a plain reduction lets NaN outputs pass any tolerance gate."""
        err = nan_safe_max_abs_err(np.array([np.nan, 1.0]),
                                   np.array([0.0, 1.0]))
        assert np.isnan(err)
        assert not (err <= 1e30)   # the gate everyone must use

    def test_nan_in_expected_propagates(self):
        assert np.isnan(nan_safe_max_abs_err(np.array([0.0]),
                                             np.array([np.nan])))

    def test_matching_nans_contribute_zero(self):
        err = nan_safe_max_abs_err(np.array([np.nan, 2.0]),
                                   np.array([np.nan, 2.0]))
        assert err == 0.0

    def test_matching_infs_contribute_zero(self):
        err = nan_safe_max_abs_err(np.array([np.inf, -np.inf, 1.0]),
                                   np.array([np.inf, -np.inf, 1.0]))
        assert err == 0.0

    def test_inf_sign_mismatch_propagates(self):
        assert np.isnan(nan_safe_max_abs_err(np.array([np.inf]),
                                             np.array([-np.inf])))

    def test_inf_position_mismatch_propagates(self):
        assert np.isnan(nan_safe_max_abs_err(np.array([np.inf, 1.0]),
                                             np.array([1.0, np.inf])))

    def test_shape_mismatch_propagates(self):
        assert np.isnan(nan_safe_max_abs_err(np.zeros(3), np.zeros(4)))

    def test_all_nan_matching(self):
        assert nan_safe_max_abs_err(np.array([np.nan]),
                                    np.array([np.nan])) == 0.0


class TestOutputsMatch:
    REF = {"Y": np.array([1.0, 2.0])}

    def test_within_tolerance(self):
        assert outputs_match({"Y": np.array([1.0, 2.0 + 1e-10])},
                             self.REF, 1e-8)

    def test_over_tolerance(self):
        assert not outputs_match({"Y": np.array([1.0, 2.1])}, self.REF, 1e-8)

    def test_nan_reply_is_a_mismatch(self):
        """``max(nan...) > tol`` is False — the hole this gate closes."""
        assert not outputs_match({"Y": np.array([np.nan, 2.0])},
                                 self.REF, 1e-8)
        assert not outputs_match({"Y": np.array([np.inf, 2.0])},
                                 self.REF, 1e-8)

    def test_missing_or_misshapen_output(self):
        assert not outputs_match({}, self.REF, 1e-8)
        assert not outputs_match({"Y": np.zeros(3)}, self.REF, 1e-8)

    def test_extra_outputs_ignored(self):
        assert outputs_match({"Y": self.REF["Y"], "Z": np.array([np.nan])},
                             self.REF, 1e-8)


class TestToleranceFor:
    def test_float64_tighter_than_float32(self):
        assert (DTYPE_TOLERANCES["float64"]
                < DTYPE_TOLERANCES["float32"]
                < DTYPE_TOLERANCES["float16"])

    def test_scales_with_reference_magnitude(self):
        small = tolerance_for(np.float32, {"o": np.array([0.5])})
        big = tolerance_for(np.float32, {"o": np.array([1000.0])})
        assert big == pytest.approx(small * 1000.0 / 1.0)

    def test_unit_floor(self):
        assert tolerance_for(np.float64, {"o": np.array([1e-6])}) == \
            DTYPE_TOLERANCES["float64"]

    def test_ignores_nonfinite_reference(self):
        tol = tolerance_for(np.float32,
                            {"o": np.array([np.inf, np.nan, 2.0])})
        assert tol == pytest.approx(DTYPE_TOLERANCES["float32"] * 2.0)


def _softmax_graph(m=16, n=24):
    b = GraphBuilder("oracle_sm")
    x = b.input("X", [("m", m), ("n", n)])
    b.softmax(x, dim="n", out_name="P")
    return b.build()


class TestDifferentialTest:
    def test_clean_graph_passes_both_engines(self):
        res = differential_test(_softmax_graph(), AMPERE)
        assert res.ok
        assert {r.engine for r in res.runs} == {"interpreter", "compiled"}
        assert all(r.worst <= res.tol for r in res.runs)
        assert "OK" in res.render()

    def test_float32_execution_passes_with_dtype_tolerance(self):
        res = differential_test(_softmax_graph(), AMPERE, dtype=np.float32)
        assert res.ok
        assert res.dtype == "float32"

    def test_barrier_graph_compiles_via_program_path(self):
        b = GraphBuilder("oracle_bar")
        x = b.input("X", [("m", 6), ("n", 10)])
        y = b.unary("relu", x)
        t = b.barrier("transpose", y, ("n", "m"), perm=(1, 0))
        b.unary("exp", t, out_name="Out")
        res = differential_test(b.build(), AMPERE)
        assert res.ok, res.render()

    def test_doctored_nan_schedule_fails(self, monkeypatch):
        """A NaN-producing engine must fail the oracle — the worst error
        is NaN and `worst <= tol` is False."""
        graph = _softmax_graph()
        from repro.runtime import oracle as oracle_mod

        def nan_engine(schedule, feeds, dtype=np.float64):
            from repro.runtime.kernels import execute_graph_reference
            env = execute_graph_reference(graph, feeds, dtype=dtype)
            out = {k: np.asarray(v).copy() for k, v in env.items()}
            next(iter(out.values())).flat[0] = np.nan
            return out

        monkeypatch.setattr(oracle_mod, "execute_schedule", nan_engine)
        res = differential_test(graph, AMPERE)
        assert not res.ok
        interp = next(r for r in res.runs if r.engine == "interpreter")
        assert np.isnan(interp.worst)
        assert "MISMATCH" in res.render()

    def test_crashing_engine_reported_not_raised(self, monkeypatch):
        from repro.runtime import oracle as oracle_mod

        def boom(schedule, feeds, dtype=np.float64):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(oracle_mod, "execute_compiled", boom)
        res = differential_test(_softmax_graph(), AMPERE)
        assert not res.ok
        compiled = next(r for r in res.runs if r.engine == "compiled")
        assert "engine exploded" in compiled.error
        assert "CRASH" in res.render()

    def test_engine_omitting_output_reported_not_raised(self, monkeypatch):
        """Regression: an engine env missing a reference output used to
        escape as a raw KeyError from the comparison loop — now it is
        contained as an engine error like any other crash."""
        graph = _softmax_graph()
        from repro.runtime import oracle as oracle_mod

        def silent_engine(schedule, feeds, dtype=np.float64):
            return dict(feeds)  # runs "fine" but publishes nothing

        monkeypatch.setattr(oracle_mod, "execute_compiled", silent_engine)
        res = differential_test(graph, AMPERE)
        assert not res.ok
        compiled = next(r for r in res.runs if r.engine == "compiled")
        assert compiled.error is not None
        assert "MissingOutput" in compiled.error
        assert "P" in compiled.error
        assert np.isnan(compiled.worst)
        # The healthy engine is still reported normally.
        interp = next(r for r in res.runs if r.engine == "interpreter")
        assert interp.ok

    def test_finite_but_over_tolerance_run_is_not_ok(self, monkeypatch):
        """Regression: EngineRun.ok used to ignore the tolerance entirely,
        so a finite-but-wrong engine looked healthy on its own run even
        though the aggregate result failed."""
        graph = _softmax_graph()
        from repro.runtime import oracle as oracle_mod

        def off_by_a_lot(schedule, feeds, dtype=np.float64):
            from repro.runtime.kernels import execute_graph_reference
            env = execute_graph_reference(graph, feeds, dtype=dtype)
            return {k: np.asarray(v) + 0.25 for k, v in env.items()}

        monkeypatch.setattr(oracle_mod, "execute_schedule", off_by_a_lot)
        res = differential_test(graph, AMPERE)
        interp = next(r for r in res.runs if r.engine == "interpreter")
        assert interp.error is None
        assert np.isfinite(interp.worst) and interp.worst > interp.tol
        assert not interp.ok
        assert not res.ok

    def test_bfloat16_execution_passes_with_dtype_tolerance(self):
        res = differential_test(_softmax_graph(), AMPERE, dtype="bfloat16")
        assert res.ok, res.render()
        assert res.dtype == "bfloat16"
        assert res.tol >= DTYPE_TOLERANCES["bfloat16"]

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown engine"):
            differential_test(_softmax_graph(), AMPERE,
                              engines=("interpreter", "gpu"))

    def test_injected_tolerance_respected(self):
        res = differential_test(_softmax_graph(), AMPERE, tol=1e-30)
        assert res.tol == 1e-30


class TestShrinking:
    def _chain_graph(self):
        b = GraphBuilder("shrinkme")
        x = b.input("X", [("m", 4), ("n", 6)])
        v = b.unary("relu", x)
        v = b.unary("tanh", v)
        v = b.unary("abs", v)
        s = b.reduce("sum", v, dim="n")
        b.binary("sub", v, s, out_name="Fin")
        return b.build()

    def test_shrinks_to_single_culprit_op(self):
        graph = self._chain_graph()

        def failing(g):
            return any(op.kind == "tanh" for op in g.ops)

        shrunk = shrink_graph(graph, failing)
        assert failing(shrunk)
        kinds = [op.kind for op in shrunk.ops]
        assert kinds == ["relu", "tanh"]  # relu feeds tanh; rest removed

    def test_shrink_is_one_minimal(self):
        graph = self._chain_graph()

        def failing(g):
            return any(op.kind == "tanh" for op in g.ops)

        shrunk = shrink_graph(graph, failing)
        for op in shrunk.ops:
            from repro.runtime.oracle import _subgraph_without
            candidate = _subgraph_without(shrunk, {op.name})
            assert candidate is None or not failing(candidate)

    def test_predicate_exceptions_treated_as_not_failing(self):
        graph = self._chain_graph()
        calls = []

        def flaky(g):
            calls.append(len(g.ops))
            if len(g.ops) < 3:
                raise RuntimeError("predicate crashed")
            return True

        shrunk = shrink_graph(graph, flaky)
        assert len(shrunk.ops) == 3  # stopped where the predicate crashes

    def test_shrink_to_reproducer_requires_failing_graph(self):
        with pytest.raises(ValueError, match="does not fail"):
            shrink_to_reproducer(_softmax_graph(), AMPERE)

    def test_passing_subgraphs_are_kept_out(self):
        """Shrinking a real oracle failure: doctor the comparison by
        making the predicate target one op kind, then check the shrunk
        graph still compiles and runs."""
        graph = self._chain_graph()
        shrunk = shrink_graph(
            graph, lambda g: any(op.kind == "reduce_sum" for op in g.ops))
        assert differential_test(shrunk, AMPERE).ok


class TestReproducerSerialisation:
    def test_round_trip_preserves_graph(self, tmp_path):
        graph = _softmax_graph()
        path = tmp_path / "rep.json"
        save_reproducer(graph, path, meta={"seed": 7, "dtype": "float32"})
        loaded, meta = load_reproducer(path)
        assert meta == {"seed": 7, "dtype": "float32"}
        assert [op.name for op in loaded.ops] == \
            [op.name for op in graph.ops]
        assert loaded.dims.items() == graph.dims.items()
        assert differential_test(loaded, AMPERE).ok

    def test_round_trip_preserves_attrs_and_outputs(self, tmp_path):
        b = GraphBuilder("attrs")
        x = b.input("X", [("m", 3), ("n", 4)])
        y = b.scalar("mul", x, 2.5)
        t = b.barrier("transpose", y, ("n", "m"), perm=(1, 0))
        b.unary("identity", t, out_name="Out")
        graph = b.build()
        graph.declared_outputs = ["Out"]
        data = graph_to_dict(graph)
        loaded = graph_from_dict(data)
        assert loaded.op(graph.ops[0].name).attrs["scalar"] == 2.5
        assert tuple(loaded.ops[1].attrs["perm"]) == (1, 0)
        assert loaded.output_tensors == ["Out"]
