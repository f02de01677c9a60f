"""Consistent-hash sharding of workloads across cluster workers.

Workloads (and their compiled sessions) are pinned to workers with a
classic consistent-hash ring: each worker contributes ``vnodes`` virtual
points on a 2^64 ring (SHA-256 of ``"worker:vnode"``), and a workload is
owned by the first worker point clockwise of the workload's own hash.

Properties the supervisor relies on:

* **determinism** — ownership is a pure function of (worker set, key):
  every process with the same member list computes the same placement,
  so routing needs no coordination;
* **stability** — adding or removing one worker moves only ~1/N of the
  keys (the segment the member owned), so a crash-restart does not
  reshuffle the fleet's warm plan caches;
* **spread** — ``owners(key, n)`` returns ``n`` *distinct* workers for
  replicated serving: the primary plus fallbacks used when a worker's
  restart breaker is open.
"""

from __future__ import annotations

import bisect
import hashlib


def _hash(token: str) -> int:
    """Stable 64-bit ring position (process-seed independent, unlike
    builtin ``hash``)."""
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """Consistent-hash ring over named members.

    ``vnodes`` controls placement smoothness: more virtual nodes even
    out the per-member key share at the cost of a larger sorted ring
    (lookup stays O(log(members * vnodes))).
    """

    def __init__(self, members: list[str] | None = None,
                 vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self.vnodes = vnodes
        self._points: list[int] = []        # sorted ring positions
        self._owner_at: dict[int, str] = {}  # ring position -> member
        self._members: set[str] = set()
        #: bumped on every membership change, so callers can memoise lookups
        self.version = 0
        for m in members or ():
            self.add(m)

    # -- membership -----------------------------------------------------

    def add(self, member: str) -> None:
        if member in self._members:
            return
        self._members.add(member)
        self.version += 1
        for v in range(self.vnodes):
            point = _hash(f"{member}:{v}")
            if point in self._owner_at:      # astronomically unlikely
                continue
            bisect.insort(self._points, point)
            self._owner_at[point] = member

    def remove(self, member: str) -> None:
        if member not in self._members:
            return
        self._members.discard(member)
        self.version += 1
        keep = [p for p in self._points if self._owner_at[p] != member]
        for p in self._points:
            if self._owner_at[p] == member:
                del self._owner_at[p]
        self._points = keep

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self._members)

    def __len__(self) -> int:
        return len(self._members)

    # -- lookup ---------------------------------------------------------

    def owner(self, key: str) -> str:
        """The member owning ``key`` (raises when the ring is empty)."""
        return self.owners(key, 1)[0]

    def owners(self, key: str, n: int = 1) -> list[str]:
        """The first ``n`` distinct members clockwise of ``key``'s hash.

        Element 0 is the primary owner; the rest are the deterministic
        fallback order used when earlier owners are down.
        """
        if not self._points:
            raise KeyError("hash ring has no members")
        n = min(n, len(self._members))
        start = bisect.bisect_right(self._points, _hash(key))
        found: list[str] = []
        for i in range(len(self._points)):
            point = self._points[(start + i) % len(self._points)]
            member = self._owner_at[point]
            if member not in found:
                found.append(member)
                if len(found) == n:
                    break
        return found

    def assignment(self, keys: list[str]) -> dict[str, list[str]]:
        """Map each member to the (sorted) keys it owns — the supervisor
        uses this to decide which sessions each worker must host."""
        placed: dict[str, list[str]] = {m: [] for m in self._members}
        for key in keys:
            placed[self.owner(key)].append(key)
        return {m: sorted(ks) for m, ks in placed.items()}
