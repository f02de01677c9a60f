"""Tests for the consistent-hash placement ring, and the placement a
supervisor fixes from it."""

import collections

import pytest

from repro.cluster import ClusterConfig, ClusterSupervisor, HashRing
from repro.models import layernorm_graph


class TestRingBasics:
    def test_empty_ring_raises(self):
        with pytest.raises(KeyError):
            HashRing().owners("k")

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_owner_deterministic_across_instances(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # insertion order irrelevant
        for key in ("mlp", "layernorm", "softmax_gemm", "k%d" % 7):
            assert a.owners(key, 3) == b.owners(key, 3)

    def test_membership_ops(self):
        """A member named twice is one member."""
        ring = HashRing(["w0", "w1", "w1"])
        assert sorted(ring.owners("k", 10)) == ["w0", "w1"]
        for key in ("mlp", "layernorm", "k3"):
            assert ring.owners(key, 2) == HashRing(["w0", "w1"]).owners(key, 2)


class TestOwners:
    def test_owners_distinct_and_primary_first(self):
        ring = HashRing(["w0", "w1", "w2"])
        owners = ring.owners("some-workload", 3)
        assert len(owners) == 3 == len(set(owners))
        assert owners[0] == ring.owners("some-workload")[0]

    def test_owners_clamped_to_member_count(self):
        ring = HashRing(["w0", "w1"])
        assert len(ring.owners("k", 10)) == 2

    def test_fallback_order_stable_under_removal(self):
        """On a ring without the primary, the old first fallback is the
        new primary — the rest of the fleet's placement is untouched."""
        ring = HashRing(["w0", "w1", "w2"])
        for i in range(200):
            key = f"key{i}"
            before = ring.owners(key, 2)
            after = HashRing([m for m in ("w0", "w1", "w2")
                              if m != before[0]])
            assert after.owners(key)[0] == before[1]

    def test_churn_is_bounded(self):
        """A ring over one more member moves roughly 1/N of the keys."""
        base = HashRing(["w0", "w1", "w2"])
        grown = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"key{i}" for i in range(500)]
        moved = sum(1 for k in keys if base.owners(k) != grown.owners(k))
        assert 0 < moved < len(keys) // 2   # ~1/4 expected; far from all

    def test_spread_roughly_even(self):
        ring = HashRing([f"w{i}" for i in range(4)], vnodes=64)
        counts = collections.Counter(ring.owners(f"key{i}")[0]
                                     for i in range(1000))
        assert len(counts) == 4
        assert min(counts.values()) > 100   # no starved member
        assert max(counts.values()) < 500   # no hot member


#: ``placement()`` of the default supervisor (replication 2, 64 vnodes),
#: recorded before the ring was fixed at construction; moving it would
#: move every fleet's warm plan caches.
PINNED_PLACEMENT = {
    1: {"chaos_ln": ["w0"], "chaos_mlp": ["w0"], "layernorm": ["w0"],
        "lstm": ["w0"], "mha": ["w0"], "mha-decode": ["w0"],
        "softmax-gemm": ["w0"]},
    2: {"chaos_ln": ["w0", "w1"], "chaos_mlp": ["w1", "w0"],
        "layernorm": ["w0", "w1"], "lstm": ["w0", "w1"],
        "mha": ["w0", "w1"], "mha-decode": ["w0", "w1"],
        "softmax-gemm": ["w1", "w0"]},
    3: {"chaos_ln": ["w0", "w1"], "chaos_mlp": ["w2", "w1"],
        "layernorm": ["w2", "w0"], "lstm": ["w0", "w2"],
        "mha": ["w2", "w0"], "mha-decode": ["w0", "w1"],
        "softmax-gemm": ["w1", "w2"]},
    4: {"chaos_ln": ["w3", "w0"], "chaos_mlp": ["w3", "w2"],
        "layernorm": ["w2", "w3"], "lstm": ["w0", "w2"],
        "mha": ["w2", "w3"], "mha-decode": ["w0", "w1"],
        "softmax-gemm": ["w1", "w3"]},
}


class TestPlacementPin:
    @pytest.mark.parametrize("workers", sorted(PINNED_PLACEMENT))
    def test_placement_is_pinned(self, workers):
        """Placement is fixed at construction: no fork needed to read it."""
        graph = layernorm_graph(8, 16, name="pin_ln")
        sup = ClusterSupervisor({name: graph for name in
                                 PINNED_PLACEMENT[workers]},
                                ClusterConfig(workers=workers))
        assert sup.placement() == PINNED_PLACEMENT[workers]
