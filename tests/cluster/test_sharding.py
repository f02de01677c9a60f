"""Tests for the consistent-hash placement ring."""

import pytest

from repro.cluster import HashRing


class TestRingBasics:
    def test_empty_ring_raises(self):
        with pytest.raises(KeyError):
            HashRing().owner("k")

    def test_vnodes_validated(self):
        with pytest.raises(ValueError):
            HashRing(vnodes=0)

    def test_owner_deterministic_across_instances(self):
        a = HashRing(["w0", "w1", "w2"])
        b = HashRing(["w2", "w0", "w1"])  # insertion order irrelevant
        for key in ("mlp", "layernorm", "softmax_gemm", "k%d" % 7):
            assert a.owner(key) == b.owner(key)

    def test_membership_ops(self):
        ring = HashRing(["w0", "w1"])
        assert len(ring) == 2
        ring.add("w1")                      # idempotent
        assert len(ring) == 2
        ring.remove("w1")
        assert ring.members == frozenset({"w0"})
        ring.remove("missing")              # no-op

    def test_version_moves_only_with_membership(self):
        ring = HashRing(["w0", "w1"])
        v = ring.version
        ring.add("w1")
        ring.remove("missing")
        ring.owners("mlp", 2)
        assert ring.version == v
        ring.remove("w1")
        assert ring.version == v + 1
        ring.add("w1")
        assert ring.version == v + 2


class TestOwners:
    def test_owners_distinct_and_primary_first(self):
        ring = HashRing(["w0", "w1", "w2"])
        owners = ring.owners("some-workload", 3)
        assert len(owners) == 3 == len(set(owners))
        assert owners[0] == ring.owner("some-workload")

    def test_owners_clamped_to_member_count(self):
        ring = HashRing(["w0", "w1"])
        assert len(ring.owners("k", 10)) == 2

    def test_fallback_order_stable_under_removal(self):
        """When the primary leaves, the old first-fallback becomes the
        new primary — the rest of the fleet's placement is untouched."""
        ring = HashRing(["w0", "w1", "w2"])
        moved = unmoved = 0
        for i in range(200):
            key = f"key{i}"
            before = ring.owners(key, 2)
            after = HashRing([m for m in ("w0", "w1", "w2")
                              if m != before[0]])
            new_primary = after.owner(key)
            assert new_primary == before[1]
            if new_primary != before[0]:
                moved += 1
            else:
                unmoved += 1
        assert moved == 200 and unmoved == 0

    def test_churn_is_bounded(self):
        """Adding one member moves roughly 1/N of the keys, not all."""
        base = HashRing(["w0", "w1", "w2"])
        grown = HashRing(["w0", "w1", "w2", "w3"])
        keys = [f"key{i}" for i in range(500)]
        moved = sum(1 for k in keys if base.owner(k) != grown.owner(k))
        assert 0 < moved < len(keys) // 2   # ~1/4 expected; far from all

    def test_spread_roughly_even(self):
        ring = HashRing([f"w{i}" for i in range(4)], vnodes=64)
        keys = [f"key{i}" for i in range(1000)]
        assignment = ring.assignment(keys)
        counts = sorted(len(v) for v in assignment.values())
        assert counts[0] > 100              # no starved member
        assert counts[-1] < 500             # no hot member

    def test_assignment_covers_every_key_once(self):
        ring = HashRing(["w0", "w1", "w2"])
        keys = [f"key{i}" for i in range(50)]
        assignment = ring.assignment(keys)
        flat = sorted(k for ks in assignment.values() for k in ks)
        assert flat == sorted(keys)
