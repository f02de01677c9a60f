"""Cache-hierarchy models: inter-kernel L2 residency, streaming hit rates,
and the granule LRU the event-driven simulator replays.

Between kernels of one program, tensors written by a producer kernel may
still be resident in L2 when a consumer kernel reads them.  This is the
effect that keeps unfused pipelines from paying full DRAM cost for every
intermediate — and quantifying it is what makes the fused-vs-unfused data
movement ratios of Figure 15 realistic rather than flattering.

Within one kernel, cross-block re-reads hit or miss L2 depending on how the
kernel's streamed working set compares to the cache capacity; the same
reuse-distance argument applies to intra-block pass-2 re-reads against the
L1/shared tier.  :func:`streaming_hit_rate` is the shared closed form, and
:class:`GranuleCache` is the discrete counterpart the event-driven
simulator uses to replay the same hierarchy block by block.
"""

from __future__ import annotations

from collections import OrderedDict


def streaming_hit_rate(footprint, capacity: int, hi=max):
    """Fraction of *re-accessed* bytes that hit a cache of ``capacity``
    while a working set of ``footprint`` bytes streams through it.

    Reuse-distance approximation: a re-access hits iff the bytes touched
    since the previous access fit in the cache.  For a uniformly mixed
    stream the expected fraction is ``capacity / footprint``, clamped to
    [0, 1]; a footprint that fits entirely always hits.  ``footprint`` is
    an int with ``hi=max``, or an int64 array (one working set per
    configuration) with ``hi=np.maximum``.
    """
    if capacity <= 0:
        return 1.0 * (footprint <= 0)  # only an empty working set fits
    return capacity / hi(footprint, capacity)


class L2State:
    """Approximate L2 content tracking across kernel launches.

    A byte-accounted LRU over whole tensors: a tensor becomes resident
    after being written if it is at most half the L2 capacity; reads
    refresh recency; insertion evicts least-recently-used tensors.
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = capacity_bytes
        self._resident: OrderedDict[str, int] = OrderedDict()

    @property
    def used_bytes(self) -> int:
        return sum(self._resident.values())

    def is_resident(self, tensor: str) -> bool:
        return tensor in self._resident

    def touch(self, tensor: str) -> None:
        if tensor in self._resident:
            self._resident.move_to_end(tensor)

    def insert(self, tensor: str, nbytes: int) -> None:
        """Record a write of ``tensor``; oversized tensors bypass the cache."""
        if nbytes > self.capacity // 2:
            self._resident.pop(tensor, None)
            return
        self._resident[tensor] = nbytes
        self._resident.move_to_end(tensor)
        while self.used_bytes > self.capacity and self._resident:
            self._resident.popitem(last=False)

    def invalidate(self, tensor: str) -> None:
        self._resident.pop(tensor, None)

    def clear(self) -> None:
        self._resident.clear()


class GranuleCache:
    """Byte-accounted LRU over (tensor, slice) granules.

    The event-driven simulator touches one granule per block access and
    asks hit-or-miss; totals over a kernel's block schedule are its
    replayed L2 hit rate.  Granules larger than the capacity stream
    through without allocating (the same bypass rule as :class:`L2State`).
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity = capacity_bytes
        self._resident: OrderedDict[tuple, int] = OrderedDict()
        self._used = 0

    def access(self, key: tuple, nbytes: int) -> bool:
        """Touch ``key``; returns True on hit, allocates on miss."""
        if key in self._resident:
            self._resident.move_to_end(key)
            return True
        if nbytes > self.capacity:
            return False
        self._resident[key] = nbytes
        self._used += nbytes
        while self._used > self.capacity and self._resident:
            _evicted, size = self._resident.popitem(last=False)
            self._used -= size
        return False

    def clear(self) -> None:
        self._resident.clear()
        self._used = 0
