"""Tests for spatial and temporal slicers (sections 4.2/4.3, Table 3)."""

import pytest

from repro.core.builder import build_smg
from repro.core.spatial_slicer import slice_spatial, spatial_sliceable_dims
from repro.core.temporal_slicer import (
    TemporalSliceError,
    plan_temporal_slice,
    temporal_dim_candidates,
)
from repro.core.scheduler import resource_aware_slicing
from repro.hw import AMPERE
from repro.ir import GraphBuilder


class TestSpatialLegality:
    """Table 3 legality plus the every-iteration-space coverage rule."""

    def test_mha_only_m_and_lead_dims(self, batched_mha):
        smg = build_smg(batched_mha)
        dims = spatial_sliceable_dims(smg)
        # Batch/head dims carry no mappings; m carries only input O2As.
        assert dims == ["b", "h", "m"]

    def test_reduction_dim_blocked(self, small_mha):
        smg = build_smg(small_mha)
        assert "l" not in spatial_sliceable_dims(smg)
        assert "dk" not in spatial_sliceable_dims(smg)

    def test_intermediate_o2a_blocks(self, small_mha):
        # dv: Div (an intermediate) is broadcast along dv into GEMM2.
        smg = build_smg(small_mha)
        assert "dv" not in spatial_sliceable_dims(smg)

    def test_input_o2a_is_sliceable(self):
        b = GraphBuilder("bcast")
        x = b.input("X", [("m", 8), ("n", 4)])
        v = b.input("V", [("m", 8)])
        b.binary("sub", x, v)
        smg = build_smg(b.build())
        # V is a kernel input broadcast along n: still sliceable (Table 3
        # "Input One-to-All" row).
        assert spatial_sliceable_dims(smg) == ["m", "n"]

    def test_intermediate_broadcast_blocks(self):
        b = GraphBuilder("bcast2")
        x = b.input("X", [("m", 8), ("n", 4)])
        mx = b.reduce("max", x, dim="n")
        b.binary("sub", x, mx)
        smg = build_smg(b.build())
        # mx is an intermediate broadcast along n -> n not sliceable.
        assert spatial_sliceable_dims(smg) == ["m"]

    def test_partial_iteration_coverage_blocks(self):
        # Two independent GEMMs sharing X: slicing one GEMM's output dim
        # would replicate the other GEMM's work.
        b = GraphBuilder("two_gemms")
        x = b.input("X", [("m", 8), ("k", 4)])
        w1 = b.input("W1", [("n1", 6), ("k", 4)])
        w2 = b.input("W2", [("n2", 6), ("k", 4)])
        b.matmul(x, w1, reduce_dim="k")
        b.matmul(x, w2, reduce_dim="k")
        smg = build_smg(b.build())
        assert spatial_sliceable_dims(smg) == ["m"]

    def test_slice_spatial_records_input_o2a(self, small_mha):
        result = slice_spatial(build_smg(small_mha))
        assert result.dims == ("m",)
        assert {m.src for m in result.sliced_input_o2a} == {"K", "V"}

    def test_fully_reduced_graph_unsliceable(self):
        b = GraphBuilder("scalarize")
        x = b.input("X", [("n", 16)])
        b.reduce("sum", x, dim="n")
        smg = build_smg(b.build())
        assert slice_spatial(smg).empty


class TestTemporalCandidates:
    def test_priority_orders_by_volume(self, small_mha):
        smg = build_smg(small_mha)
        cands = temporal_dim_candidates(smg, excluded={"m"})
        assert cands[0] == "l"  # the largest data-space volume

    def test_excluded_dims_skipped(self, small_mha):
        smg = build_smg(small_mha)
        assert "m" not in temporal_dim_candidates(smg, excluded={"m"})

    def test_mapping_free_dims_skipped(self, batched_mha):
        smg = build_smg(batched_mha)
        cands = temporal_dim_candidates(smg, excluded=set())
        assert "b" not in cands and "h" not in cands


class TestTemporalPlans:
    def test_mha_uses_uta(self, small_mha):
        plan = plan_temporal_slice(build_smg(small_mha), "l")
        assert plan.uses_uta
        assert [s.combiner for s in plan.stages] == ["max", "sum", "sum"]
        assert not plan.has_pass2  # Out is itself the final aggregate

    def test_mha_update_functions_match_figure8(self, small_mha):
        plan = plan_temporal_slice(build_smg(small_mha), "l")
        max_stage, sum_stage, out_stage = plan.stages
        assert max_stage.update.is_identity
        # updateSum = Sum_old * exp(Max_old)/exp(Max)
        assert [f.func for f in sum_stage.update.factors] == ["exp"]
        assert [f.power for f in sum_stage.update.factors] == [-1]
        # updateOut = Out_old * exp(Max_old)/exp(Max) * Sum_old/Sum
        funcs = sorted((f.func, f.power) for f in out_stage.update.factors)
        assert funcs == [("exp", -1), ("id", -1)]

    def test_layernorm_becomes_simple_aggregate(self, small_ln):
        plan = plan_temporal_slice(build_smg(small_ln), "n")
        assert not plan.uses_uta  # variance decomposition fired
        assert plan.rewritten
        assert plan.has_pass2
        assert all(s.combiner == "sum" for s in plan.stages)

    def test_softmax_plan_has_pass2(self, small_softmax):
        plan = plan_temporal_slice(build_smg(small_softmax), "n")
        assert plan.uses_uta
        assert plan.has_pass2  # the div output needs re-walking the tiles

    def test_streaming_dim_without_reductions(self):
        b = GraphBuilder("stream")
        x = b.input("X", [("m", 8), ("n", 64)])
        v = b.input("V", [("m", 8)])
        b.binary("sub", x, v, out_name="Y")
        plan = plan_temporal_slice(build_smg(b.build()), "n")
        assert not plan.stages
        assert plan.pass2_op_names  # pure streaming epilogue

    def test_unknown_dim_raises(self, small_mha):
        with pytest.raises(TemporalSliceError, match="unknown"):
            plan_temporal_slice(build_smg(small_mha), "zz")

    def test_try_best_falls_back(self, small_mha):
        # With m sliced spatially, Algorithm 1 temporally slices l.
        result = resource_aware_slicing(build_smg(small_mha),
                                        AMPERE.resource_config())
        plans = [k.plan for k in result.candidates if k.plan is not None]
        assert all(k.spatial_dims == ("m",) for k in result.candidates)
        assert len(plans) == 1 and plans[0].dim == "l"

    def test_tile_ops_are_stage_ancestors(self, small_mha):
        plan = plan_temporal_slice(build_smg(small_mha), "l")
        graph = plan.graph
        stage_outs = set(plan.stage_outputs)
        produced = {graph.op(n).output for n in plan.tile_op_names}
        assert stage_outs <= produced

    def test_describe_is_readable(self, small_mha):
        text = plan_temporal_slice(build_smg(small_mha), "l").describe()
        assert "UTA" in text and "update" in text


class TestUnsliceableChains:
    def test_opaque_chain_raises(self):
        # A nonlinear function of a prior aggregate feeding a sum cannot be
        # renormalised: sum(tanh(x - max(x))) has no update function.
        b = GraphBuilder("hard")
        x = b.input("X", [("m", 4), ("n", 16)])
        mx = b.reduce("max", x, dim="n")
        c = b.binary("sub", x, mx)
        t = b.unary("tanh", c)
        b.reduce("sum", t, dim="n", out_name="S")
        smg = build_smg(b.build())
        with pytest.raises(TemporalSliceError, match="postposition failed"):
            plan_temporal_slice(smg, "n")

    def test_try_best_returns_none_when_all_fail(self):
        b = GraphBuilder("hard2")
        x = b.input("X", [("m", 4), ("n", 16)])
        mx = b.reduce("max", x, dim="n")
        c = b.binary("sub", x, mx)
        t = b.unary("tanh", c)
        b.reduce("sum", t, dim="n", out_name="S")
        smg = build_smg(b.build())
        # m is sliced spatially; n, the only temporal candidate, does not
        # synthesise, so only the spatial schedule remains.
        assert temporal_dim_candidates(smg, {"m"}) == ["n"]
        result = resource_aware_slicing(smg, AMPERE.resource_config())
        assert [k.spatial_dims for k in result.candidates] == [("m",)]
        assert all(k.plan is None for k in result.candidates)
