"""Tests for GPU specs and the cache models (L2 residency, granule LRU)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw import (
    AMPERE,
    ARCHITECTURES,
    BLACKWELL,
    H200,
    HOPPER,
    PAPER_ARCHITECTURES,
    VOLTA,
    GranuleCache,
    L2State,
    get_gpu,
    streaming_hit_rate,
)


class TestSpecs:
    def test_architecture_presets(self):
        assert set(ARCHITECTURES) == {
            "volta", "ampere", "hopper", "h200", "blackwell"}
        assert PAPER_ARCHITECTURES == ("volta", "ampere", "hopper")
        for arch in PAPER_ARCHITECTURES:
            assert arch in ARCHITECTURES

    def test_peak_ratio_matches_paper(self):
        """Figure 16(c): FP16 tensor-core peak ratio 1 : 2.79 : 6.75."""
        v = VOLTA.tensor_flops
        assert AMPERE.tensor_flops / v == pytest.approx(2.79, abs=0.05)
        assert HOPPER.tensor_flops / v == pytest.approx(6.75, abs=0.05)

    def test_smem_grows_across_generations(self):
        assert VOLTA.smem_per_block < AMPERE.smem_per_block < HOPPER.smem_per_block

    def test_resource_config_projection(self):
        rc = AMPERE.resource_config()
        assert rc.smem_per_block == AMPERE.smem_per_block
        assert rc.regs_per_block > 0

    def test_get_gpu_by_arch_and_name(self):
        assert get_gpu("volta") is VOLTA
        assert get_gpu("A100") is AMPERE
        with pytest.raises(KeyError):
            get_gpu("pascal")

    def test_get_gpu_resolves_new_presets(self):
        assert get_gpu("h200") is H200
        assert get_gpu("H200") is H200
        assert get_gpu("blackwell") is BLACKWELL
        assert get_gpu("B200") is BLACKWELL

    def test_get_gpu_error_names_choices(self):
        with pytest.raises(KeyError, match="blackwell"):
            get_gpu("tesla-k80")

    def test_graph_launch_cheaper(self):
        for spec in ARCHITECTURES.values():
            assert spec.graph_launch_overhead < spec.kernel_launch_overhead

    def test_new_presets_widen_the_sweep(self):
        """H200 keeps Hopper compute class but adds bandwidth; Blackwell
        moves both axes."""
        assert H200.arch == "hopper"
        assert H200.dram_bandwidth > 2 * HOPPER.dram_bandwidth
        assert BLACKWELL.tensor_flops > H200.tensor_flops
        assert BLACKWELL.l2_capacity > H200.l2_capacity

    def test_instruction_weight_tables(self):
        """Per-family tables override the generic weights; unknown kinds
        fall back (1.0 for plain arithmetic)."""
        assert VOLTA.instruction_weight("exp") > \
            HOPPER.instruction_weight("exp")
        assert HOPPER.instruction_weight("exp") > \
            BLACKWELL.instruction_weight("exp")
        for spec in ARCHITECTURES.values():
            assert spec.instruction_weight("add") == 1.0
            assert spec.instruction_weight("exp") >= 1.0


class TestStreamingHitRate:
    def test_fits_entirely(self):
        assert streaming_hit_rate(1000, 4000) == 1.0
        assert streaming_hit_rate(0, 4000) == 1.0

    def test_overflow_decays(self):
        assert streaming_hit_rate(8000, 4000) == pytest.approx(0.5)
        assert streaming_hit_rate(400000, 4000) == pytest.approx(0.01)

    def test_clamped(self):
        assert 0.0 <= streaming_hit_rate(10**12, 4000) <= 1.0

    def test_no_cache(self):
        assert streaming_hit_rate(0, 0) == 1.0
        assert streaming_hit_rate(1000, 0) == 0.0

    def test_a_working_set_per_configuration(self):
        footprints = np.array([0, 1000, 8000, 400000], dtype=np.int64)
        for capacity in (4000, 0):
            rates = streaming_hit_rate(footprints, capacity, np.maximum)
            assert rates.tolist() == [streaming_hit_rate(int(f), capacity)
                                      for f in footprints]


class TestL2State:
    def test_insert_and_resident(self):
        l2 = L2State(1000)
        l2.insert("a", 100)
        assert l2.is_resident("a")
        assert l2.used_bytes == 100

    def test_oversized_bypasses(self):
        l2 = L2State(1000)
        l2.insert("big", 600)  # > capacity/2
        assert not l2.is_resident("big")

    def test_lru_eviction(self):
        l2 = L2State(1000)
        l2.insert("a", 400)
        l2.insert("b", 400)
        l2.insert("c", 400)  # evicts a
        assert not l2.is_resident("a")
        assert l2.is_resident("b") and l2.is_resident("c")

    def test_touch_refreshes_recency(self):
        l2 = L2State(1000)
        l2.insert("a", 400)
        l2.insert("b", 400)
        l2.touch("a")
        l2.insert("c", 400)  # evicts b, not a
        assert l2.is_resident("a")
        assert not l2.is_resident("b")

    def test_rewrite_updates_size(self):
        l2 = L2State(1000)
        l2.insert("a", 100)
        l2.insert("a", 300)
        assert l2.used_bytes == 300

    def test_invalidate_and_clear(self):
        l2 = L2State(1000)
        l2.insert("a", 100)
        l2.invalidate("a")
        assert not l2.is_resident("a")
        l2.insert("b", 100)
        l2.clear()
        assert l2.used_bytes == 0

    def test_oversized_insert_drops_stale_entry(self):
        l2 = L2State(1000)
        l2.insert("a", 100)
        l2.insert("a", 900)  # now oversized: must not stay resident
        assert not l2.is_resident("a")


_L2_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("insert"),
                  st.sampled_from("abcdef"),
                  st.integers(min_value=0, max_value=1500)),
        st.tuples(st.just("touch"), st.sampled_from("abcdef"),
                  st.just(0)),
        st.tuples(st.just("invalidate"), st.sampled_from("abcdef"),
                  st.just(0)),
    ),
    max_size=60,
)


class TestL2StateProperties:
    @settings(max_examples=200, deadline=None)
    @given(ops=_L2_OPS)
    def test_used_bytes_never_exceed_capacity(self, ops):
        """Whatever the insert/touch/invalidate sequence, the byte
        accounting never overflows the capacity and never goes negative."""
        l2 = L2State(1000)
        for op, tensor, nbytes in ops:
            if op == "insert":
                l2.insert(tensor, nbytes)
            elif op == "touch":
                l2.touch(tensor)
            else:
                l2.invalidate(tensor)
            assert 0 <= l2.used_bytes <= l2.capacity

    @settings(max_examples=100, deadline=None)
    @given(ops=_L2_OPS,
           nbytes=st.integers(min_value=501, max_value=10**6))
    def test_oversized_insert_never_resident(self, ops, nbytes):
        """An insert above the residency threshold evicts any prior entry
        for that tensor and never leaves it resident."""
        l2 = L2State(1000)
        for op, tensor, size in ops:
            if op == "insert":
                l2.insert(tensor, size)
        l2.insert("a", nbytes)
        assert not l2.is_resident("a")
        assert l2.used_bytes <= l2.capacity


class TestGranuleCache:
    def test_miss_then_hit(self):
        c = GranuleCache(1000)
        assert not c.access(("t", 0), 400)
        assert c.access(("t", 0), 400)

    def test_lru_eviction(self):
        c = GranuleCache(1000)
        c.access(("t", 0), 400)
        c.access(("t", 1), 400)
        c.access(("t", 2), 400)  # evicts ("t", 0)
        assert not c.access(("t", 0), 400)

    def test_oversized_streams_through(self):
        c = GranuleCache(1000)
        c.access(("small", 0), 400)
        assert not c.access(("huge", 0), 5000)
        assert not c.access(("huge", 0), 5000)  # still a miss
        assert c.access(("small", 0), 400)      # undisturbed

    @settings(max_examples=100, deadline=None)
    @given(keys=st.lists(st.tuples(st.sampled_from("ab"),
                                   st.integers(0, 8)), max_size=80),
           sizes=st.data())
    def test_accounting_invariant(self, keys, sizes):
        c = GranuleCache(1000)
        for key in keys:
            c.access(key, sizes.draw(st.integers(0, 1200)))
            assert 0 <= c._used <= c.capacity
            assert c._used == sum(c._resident.values())
