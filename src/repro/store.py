"""One keyed store: bounded LRU, atomic disk tier, cross-process single-flight.

Every program cache in the repo — compiled schedules
(:class:`~repro.core.serialize.ScheduleCache`,
:class:`~repro.serve.cache.TieredScheduleCache`), tuning campaigns
(:class:`~repro.tune.TuneDB`) and lowered plans
(:class:`~repro.runtime.compiled.PlanCache`) — is a codec plus counters
over the pieces here, so a format, lock-policy or fault-containment
change has one place to land:

* :class:`LRU` — thread-safe bounded map with an eviction callback;
* :class:`DiskStore` — one ``<key>.json`` per key; puts are
  tempfile + ``os.replace`` so a crash mid-write never leaves a truncated
  entry, and :meth:`DiskStore.load` deletes an entry it cannot decode so
  one bad file costs a miss, not every boot that hashes onto it;
* :class:`FileLock` + :func:`single_flight` — a ``fcntl.flock`` per key
  (``<key>.lock`` next to the entry) stretches "produce once" across the
  processes sharing a directory.

Stdlib only: this sits below ``core``, ``tune``, ``runtime`` and
``serve`` and must import none of them.
"""

from __future__ import annotations

import os
import pathlib
import tempfile
import threading
import time
from collections import OrderedDict
from typing import Callable

try:  # pragma: no cover - import guard exercised only on exotic platforms
    import fcntl
except ImportError:  # pragma: no cover - Windows fallback
    fcntl = None  # type: ignore[assignment]

#: True when real advisory locking is available on this platform.
HAVE_FCNTL = fcntl is not None


class LRU:
    """Thread-safe map bounded to ``capacity`` entries.

    ``get`` and ``put`` both mark the key most recently used; a ``put``
    past the bound drops the least recently used entries and hands each
    to ``on_evict(key, value)`` after the lock is released.  Values must
    not be ``None`` (``get``/``pop`` use it for "absent").
    """

    def __init__(self, capacity: int,
                 on_evict: Callable[[object, object], None] | None = None,
                 ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._on_evict = on_evict
        self._lock = threading.Lock()
        self._entries: OrderedDict = OrderedDict()

    def get(self, key):
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key, value) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            evicted = [self._entries.popitem(last=False)
                       for _ in range(len(self._entries) - self.capacity)]
        if self._on_evict is not None:
            for old_key, old_value in evicted:
                self._on_evict(old_key, old_value)

    def pop(self, key):
        """Remove ``key``; its value, or None when it was not resident."""
        with self._lock:
            return self._entries.pop(key, None)

    def values(self) -> list:
        """Snapshot, least recently used first."""
        with self._lock:
            return list(self._entries.values())

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class DiskStore:
    """Directory of ``<key>.json`` entries shared across processes
    (``create=False``: made by its first writer; until then, empty)."""

    def __init__(self, directory: str | os.PathLike,
                 create: bool = True) -> None:
        self.directory = pathlib.Path(directory)
        if create:
            self.directory.mkdir(parents=True, exist_ok=True)

    def path(self, key: str) -> pathlib.Path:
        return self.directory / f"{key}.json"

    def lock_path(self, key: str) -> pathlib.Path:
        """Advisory-lock file for ``key``; next to the entry so it shares
        the entry's filesystem and permissions."""
        return self.directory / f"{key}.lock"

    def keys(self) -> list[str]:
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def read(self, key: str) -> str | None:
        """The entry's text, or None when there is no such entry."""
        try:
            with open(self.path(key), encoding="utf-8") as fh:
                return fh.read()
        except FileNotFoundError:
            return None

    def write(self, key: str, text: str) -> None:
        """Store atomically: write a temp file in the same directory and
        ``os.replace`` it over the entry.  On any failure the previous
        entry (if any) is untouched and no temp file is left behind."""
        path = self.path(key)
        fd, tmp_name = tempfile.mkstemp(dir=self.directory,
                                        prefix=path.stem + ".",
                                        suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(tmp_name, path)
        except BaseException:
            try:
                os.unlink(tmp_name)
            except OSError:
                pass
            raise

    def delete(self, key: str) -> None:
        self.path(key).unlink(missing_ok=True)

    def load(self, key: str, decode: Callable[[str], object],
             errors: tuple[type[BaseException], ...]):
        """Read and decode one entry: ``(value, contained)``.

        A missing entry is ``(None, False)``.  One that cannot be read,
        or whose ``decode`` raises one of ``errors`` (corrupt, truncated,
        written under another format version), is deleted and reported
        as ``(None, True)`` — the caller re-produces the value and its
        ``write`` replaces the bad file.
        """
        try:
            text = self.read(key)
            if text is None:
                return None, False
            return decode(text), False
        except (OSError, *errors):
            self.delete(key)
            return None, True


class FileLock:
    """One advisory ``flock`` on ``path``, acquired with a bounded wait.

    Usage::

        lock = FileLock(path, timeout_s=5.0)
        acquired = lock.acquire()   # False ⇒ timed out, proceed unlocked
        try:
            ...
        finally:
            lock.release()

    Failure semantics are deliberately forgiving: a **crashed** holder
    cannot wedge the fleet (the kernel releases a ``flock`` the moment
    the holder's fd closes, including on SIGKILL); a **live but stuck**
    holder is bounded by ``timeout_s`` (``timed_out``); without ``fcntl``
    (Windows) or a lock file (a read-only directory) the lock degrades to
    a no-op.  Lock files are never deleted while in use
    (deleting an flock'd file re-opens a race on the inode).

    ``acquire``/``release`` are not thread-safe on one instance — create
    one :class:`FileLock` per acquisition attempt (they are cheap).
    """

    def __init__(self, path: str | os.PathLike,
                 timeout_s: float = 30.0,
                 poll_s: float = 0.005) -> None:
        if timeout_s < 0:
            raise ValueError("timeout_s must be >= 0")
        self.path = os.fspath(path)
        self.timeout_s = timeout_s
        self.poll_s = max(1e-4, poll_s)
        self._fd: int | None = None
        #: True when the last :meth:`acquire` had to wait for another
        #: holder.  Callers use it to decide whether a competitor could
        #: have finished the protected work in the meantime
        #: (:func:`single_flight` re-checks only then).
        self.waited = False
        self.timed_out = False

    @property
    def held(self) -> bool:
        return self._fd is not None

    def acquire(self) -> bool:
        """Take the lock; False when the timeout elapsed (or no fcntl).

        The wait is a non-blocking poll loop rather than a blocking
        ``flock`` so a stuck holder costs at most ``timeout_s`` — the
        caller then falls back to working unlocked.
        """
        if fcntl is None:
            return False
        if self._fd is not None:
            raise RuntimeError(f"lock {self.path!r} already held")
        try:
            fd = os.open(self.path, os.O_RDWR | os.O_CREAT, 0o644)
        except OSError:
            return False
        deadline = time.monotonic() + self.timeout_s
        while True:
            try:
                fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except OSError:
                if time.monotonic() >= deadline:
                    os.close(fd)
                    self.timed_out = True
                    return False
                self.waited = True
                time.sleep(self.poll_s)
                continue
            self._fd = fd
            return True

    def release(self) -> None:
        """Drop the lock (no-op when it was never acquired)."""
        if self._fd is None:
            return
        fd, self._fd = self._fd, None
        try:
            fcntl.flock(fd, fcntl.LOCK_UN)  # type: ignore[union-attr]
        finally:
            os.close(fd)

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()


def single_flight(disk: DiskStore | None, key: str, timeout_s: float,
                  recheck: Callable[[], object],
                  produce: Callable[[], object],
                  on_timeout: Callable[[], None] | None = None):
    """``produce()`` once across the processes sharing ``disk``.

    The caller has already missed on ``key``.  Under the key's file lock:
    a caller that had to *wait* for the lock calls ``recheck()`` first —
    the previous holder usually produced and persisted meanwhile — and
    returns its result unless it is None; an instantly-free lock means
    nobody was producing when the caller looked, so its miss still
    stands and no second read is paid.  A timeout (live-but-stuck
    holder) calls ``on_timeout()`` and produces unlocked (as does a lock
    that cannot be made at all): worst case one
    duplicate production, never a wedged fleet — safe because
    :meth:`DiskStore.write` is atomic and last-writer-wins.  With no
    disk tier there is no other process to wait for.
    """
    if disk is None:
        return produce()
    lock = FileLock(disk.lock_path(key), timeout_s=timeout_s)
    acquired = lock.acquire()
    try:
        if acquired:
            if lock.waited:
                found = recheck()
                if found is not None:
                    return found
        elif lock.timed_out and on_timeout is not None:
            on_timeout()    # a real timeout, not a platform gap
        return produce()
    finally:
        lock.release()
