"""Consistent-hash sharding of workloads across cluster workers.

Workloads (and their compiled sessions) are pinned to workers with a
classic consistent-hash ring: each worker contributes ``vnodes`` virtual
points on a 2^64 ring (SHA-256 of ``"worker:vnode"``), and a workload is
owned by the first worker point clockwise of the workload's own hash.

The supervisor builds one ring over its fixed worker names when it is
constructed and keeps each workload's owners; membership never changes
after that (a crashed worker restarts under the same name), so the
ring has no add or remove.  Properties it relies on:

* **determinism** — ownership is a pure function of (worker set, key):
  every process with the same member list computes the same placement,
  so routing needs no coordination;
* **stability** — a ring over one more or one fewer worker moves only
  ~1/N of the keys, so resizing a fleet does not reshuffle its warm
  plan caches;
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
    """Consistent-hash ring over a fixed list of named members.

    ``vnodes`` controls placement smoothness: more virtual nodes even
    out the per-member key share at the cost of a larger sorted ring
    (lookup stays O(log(members * vnodes))).
    """

    def __init__(self, members: list[str] | None = None,
                 vnodes: int = 64) -> None:
        if vnodes < 1:
            raise ValueError("vnodes must be >= 1")
        self._owner_at: dict[int, str] = {}  # ring position -> member
        self._members = list(dict.fromkeys(members or ()))
        for member in self._members:
            for v in range(vnodes):
                point = _hash(f"{member}:{v}")
                # A collision (astronomically unlikely): first one wins.
                self._owner_at.setdefault(point, member)
        self._points = sorted(self._owner_at)    # ring positions

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
