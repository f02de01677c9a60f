"""The feed/reply arena: one anonymous ``memfd`` file of fixed slots per
worker, carrying tensors between supervisor and worker without pickle.

The supervisor creates the file before it forks the worker and keeps the
only slot book (:class:`SlotArena`): ``put`` takes a free slot,
``os.pwrite``\\ s each feed straight from its numpy buffer and returns a
small descriptor to send over the pipe; ``read`` ``os.preadv``\\ s a
reply's outputs into fresh arrays the client owns.  The supervisor never
maps the file — shared pages count in the resident set of every process
that maps them.  The worker maps it once (:class:`SlotViews`), hands the
server read-only array views of a slot's feeds and writes a successful
request's outputs into the tail of the same slot.

A slot belongs to one wire id from ``put`` until the supervisor calls
``release`` (the worker's terminal message for that id arrived) or
``release_all`` (the worker process is dead and reaped).  Nothing else
frees it, so an execution that outlives its client-visible answer still
reads its own feeds.
"""

from __future__ import annotations

import mmap
import os
import threading

import numpy as np

#: Slots per worker.  Deliberately not tied to ``worker_queue_depth``:
#: resident arena pages stay bounded however deep a queue gets, and a
#: request that finds no free slot simply travels in-band.
ARENA_SLOTS = 8
#: Every array starts on a cache line, so views are aligned for any dtype.
_ALIGN = 64
_PAGE = mmap.PAGESIZE
#: Bytes per element of what the runtime feeds and publishes (float64).
_ITEMSIZE = 8

#: One array in a slot: ``(name, dtype.str, shape, offset in the slot)``.
Descriptor = list[tuple[str, str, tuple[int, ...], int]]


def _round_up(n: int, multiple: int) -> int:
    return -(-n // multiple) * multiple


def slot_bytes_for(graphs) -> int:
    """Slot size for a worker hosting ``graphs``: the largest declared
    input + output footprint among them, page-rounded."""
    def footprint(graph) -> int:
        names = graph.input_tensors + graph.output_tensors
        return sum(
            _round_up(int(np.prod(graph.tensors[t].shape(graph.dims),
                                  dtype=np.int64)) * _ITEMSIZE, _ALIGN)
            for t in names)
    return _round_up(max(footprint(g) for g in graphs), _PAGE)


def _layout(arrays: dict[str, np.ndarray], start: int,
            limit: int) -> tuple[Descriptor, int] | None:
    """Place ``arrays`` one after another from ``start``; returns the
    descriptor and the first free byte after them, or ``None`` when they
    do not fit below ``limit``."""
    desc: Descriptor = []
    offset = start
    for name, arr in arrays.items():
        offset = _round_up(offset, _ALIGN)
        desc.append((name, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
    return (desc, offset) if offset <= limit else None


class SlotArena:
    """Supervisor side: the memfd, the slot book, ``pwrite``/``preadv``."""

    def __init__(self, slot_bytes: int, slots: int = ARENA_SLOTS) -> None:
        self.slot_bytes = slot_bytes
        self.slots = slots
        self.fd = os.memfd_create("repro-arena")
        os.ftruncate(self.fd, slot_bytes * slots)
        self._lock = threading.Lock()
        #: LIFO, so the slots in use are the ones whose pages are hot.
        self._free = list(range(slots - 1, -1, -1))
        self._held: dict[int, int] = {}

    @staticmethod
    def supported() -> bool:
        return hasattr(os, "memfd_create") and hasattr(os, "preadv")

    def child_spec(self) -> tuple[int, int, int]:
        """What a forked worker needs to map the file it inherited."""
        return (self.fd, self.slot_bytes, self.slots)

    # -- slot book ------------------------------------------------------

    def put(self, wire_id: int,
            feeds: dict) -> tuple[tuple[int, Descriptor, int], int] | None:
        """Write ``feeds`` into a free slot held for ``wire_id``; returns
        ``((slot, descriptor, first free byte), bytes written)``, or
        ``None`` — the caller sends the request in-band — when the feeds
        are larger than a slot or no slot is free."""
        arrays = {name: np.ascontiguousarray(v) for name, v in feeds.items()}
        placed = _layout(arrays, 0, self.slot_bytes)
        if placed is None:
            return None
        desc, end = placed
        with self._lock:
            if not self._free:
                return None
            slot = self._held[wire_id] = self._free.pop()
        base = slot * self.slot_bytes
        try:
            for (_n, _d, _s, offset), arr in zip(desc, arrays.values()):
                self._pwrite(arr, base + offset)
        except OSError:
            self.release(wire_id)
            return None
        return (slot, desc, end), sum(a.nbytes for a in arrays.values())

    def release(self, wire_id: int) -> None:
        """Free the slot ``wire_id`` holds, if it holds one."""
        with self._lock:
            slot = self._held.pop(wire_id, None)
            if slot is not None:
                self._free.append(slot)

    def release_all(self) -> None:
        """Free every held slot: the worker that could touch them is
        dead and reaped."""
        with self._lock:
            self._free.extend(self._held.values())
            self._held.clear()

    def held(self) -> dict[int, int]:
        """wire id → slot, for tests and introspection."""
        with self._lock:
            return dict(self._held)

    # -- data -----------------------------------------------------------

    def _pwrite(self, arr: np.ndarray, offset: int) -> None:
        buf = memoryview(arr.reshape(-1).view(np.uint8))
        while buf:
            written = os.pwrite(self.fd, buf, offset)
            buf, offset = buf[written:], offset + written

    def read(self, wire_id: int, desc: Descriptor) -> dict[str, np.ndarray]:
        """Copy the arrays ``desc`` names out of ``wire_id``'s slot into
        fresh arrays."""
        with self._lock:
            base = self._held[wire_id] * self.slot_bytes
        out: dict[str, np.ndarray] = {}
        for name, dtype, shape, offset in desc:
            arr = np.empty(shape, dtype=np.dtype(dtype))
            buf, at = memoryview(arr.reshape(-1).view(np.uint8)), base + offset
            while buf:
                got = os.preadv(self.fd, [buf], at)
                if got == 0:
                    raise OSError("arena file shorter than its descriptor")
                buf, at = buf[got:], at + got
            out[name] = arr
        return out

    def close(self) -> None:
        if self.fd >= 0:
            os.close(self.fd)
            self.fd = -1


class SlotViews:
    """Worker side: the one mapping of the arena file."""

    def __init__(self, fd: int, slot_bytes: int, slots: int) -> None:
        self.fd = fd
        self.slot_bytes = slot_bytes
        self._map = mmap.mmap(fd, slot_bytes * slots)

    def _view(self, slot: int, dtype: str, shape: tuple[int, ...],
              offset: int) -> np.ndarray:
        return np.ndarray(shape, dtype=np.dtype(dtype), buffer=self._map,
                          offset=slot * self.slot_bytes + offset)

    def feeds(self, slot: int, desc: Descriptor) -> dict[str, np.ndarray]:
        """Read-only arrays aliasing the slot: no copy, no allocation."""
        feeds = {}
        for name, dtype, shape, offset in desc:
            view = self._view(slot, dtype, shape, offset)
            view.flags.writeable = False
            feeds[name] = view
        return feeds

    def put_outputs(self, slot: int, tail: int,
                    outputs: dict) -> Descriptor | None:
        """Copy ``outputs`` into the slot from byte ``tail`` on; ``None``
        when they do not fit (the reply then travels in-band)."""
        arrays = {name: np.asarray(v) for name, v in outputs.items()}
        placed = _layout(arrays, tail, self.slot_bytes)
        if placed is None:
            return None
        desc, _end = placed
        for (_n, dtype, shape, offset), arr in zip(desc, arrays.values()):
            np.copyto(self._view(slot, dtype, shape, offset), arr)
        return desc

    def close(self) -> None:
        try:
            self._map.close()
        except BufferError:
            pass    # a view is still referenced; process exit unmaps it
        os.close(self.fd)
