"""Deterministic failpoints: named fault-injection sites.

The serving stack registers *failpoints* at every place the real system
can fail — disk-cache I/O, a compile attempt, compiled execution, batch
assembly — following the etcd/TiKV failpoint pattern: a site is a single
``fire(name)`` call that does nothing until a test (or the chaos
harness, :mod:`repro.resilience.chaos`) *arms* it with an action:

* ``fail``            — raise :class:`FaultInjected` on every evaluation;
* ``fail_n_times(n)`` — raise on the next ``n`` evaluations, then pass;
* ``delay(ms)``       — sleep ``ms`` milliseconds, then pass.

Disarmed cost is one module-level bool check (``_REGISTRY.armed_any``),
so instrumented hot paths pay nothing in production.  No action draws
a random number, so a chaos run injects the same fault sequence every
time.

Sites that need a *behavioural* fault rather than an exception (e.g. the
compiled engine poisoning its outputs with NaNs) use
:func:`triggered(name) <triggered>`, which evaluates the armed action and
returns True instead of raising.
"""

from __future__ import annotations

import re
import threading
import time
from contextlib import contextmanager
from typing import Iterator, Mapping


class FaultInjected(Exception):
    """An armed failpoint fired.  Carries the failpoint's name."""

    def __init__(self, name: str) -> None:
        super().__init__(f"injected fault at failpoint {name!r}")
        self.failpoint = name


class FailpointError(Exception):
    """Bad failpoint usage: unknown name or unparsable action spec."""


_SPEC_RE = re.compile(
    r"^\s*(?:(?P<fail>fail)|(?P<kind>fail_n_times|delay)"
    r"\s*\(\s*(?P<arg>[^)]*?)\s*\))\s*$")


class _Armed:
    """One armed action; mutated under the registry lock."""

    __slots__ = ("kind", "remaining", "delay_s", "hits")

    def __init__(self, kind: str, remaining: int | None = None,
                 delay_s: float = 0.0) -> None:
        self.kind = kind            # "fail" | "delay"
        self.remaining = remaining  # None = unlimited
        self.delay_s = delay_s
        self.hits = 0


def parse_action(spec: str) -> _Armed:
    """Parse an action spec string (``fail``, ``fail_n_times(2)``,
    ``delay(10)``) into its armed form."""
    m = _SPEC_RE.match(spec)
    if m is None:
        raise FailpointError(f"unparsable failpoint action {spec!r}")
    if m.group("fail"):
        return _Armed("fail")
    kind, arg = m.group("kind"), m.group("arg")
    try:
        if kind == "fail_n_times":
            n = int(arg)
            if n < 1:
                raise ValueError
            return _Armed("fail", remaining=n)
        # delay(ms)
        ms = float(arg)
        if ms < 0:
            raise ValueError
        return _Armed("delay", delay_s=ms / 1e3)
    except (TypeError, ValueError):
        raise FailpointError(
            f"bad argument in failpoint action {spec!r}") from None


class FailpointRegistry:
    """Thread-safe registry of known failpoints and their armed actions."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._known: set[str] = set()
        self._armed: dict[str, _Armed] = {}
        #: Fast-path flag read without the lock: False ⇒ fire() is a no-op.
        self.armed_any = False

    # -- site registration (import time) -------------------------------

    def register(self, name: str) -> str:
        with self._lock:
            self._known.add(name)
        return name

    def known(self) -> frozenset[str]:
        with self._lock:
            return frozenset(self._known)

    # -- arming (test / chaos-harness side) -----------------------------

    def arm(self, name: str, spec: str) -> None:
        if name not in self._known:
            raise FailpointError(
                f"unknown failpoint {name!r}; registered: "
                f"{sorted(self._known)}")
        action = parse_action(spec)
        with self._lock:
            self._armed[name] = action
            self.armed_any = True

    def disarm(self, name: str | None = None) -> None:
        """Disarm one failpoint (or every failpoint with no ``name``)."""
        with self._lock:
            if name is None:
                self._armed.clear()
            else:
                self._armed.pop(name, None)
            self.armed_any = bool(self._armed)

    @contextmanager
    def armed(self, plan: Mapping[str, str]) -> Iterator[None]:
        """Arm ``{failpoint: action-spec}`` for the duration of a block."""
        for name, spec in plan.items():
            self.arm(name, spec)
        try:
            yield
        finally:
            for name in plan:
                self.disarm(name)

    # -- evaluation (site side) -----------------------------------------

    def _evaluate(self, name: str) -> _Armed | None:
        """Consume one evaluation of ``name``; None when it should pass."""
        with self._lock:
            action = self._armed.get(name)
            if action is None:
                return None
            if action.remaining is not None:
                if action.remaining <= 0:
                    return None
                action.remaining -= 1
            action.hits += 1
            return action

    def fire(self, name: str) -> None:
        """Evaluate a failpoint: raise, sleep, or pass through."""
        action = self._evaluate(name)
        if action is None:
            return
        if action.kind == "delay":
            time.sleep(action.delay_s)
            return
        raise FaultInjected(name)

    def triggered(self, name: str) -> bool:
        """Like :meth:`fire` but returns True instead of raising, for
        sites that inject behavioural corruption rather than an error."""
        action = self._evaluate(name)
        if action is None:
            return False
        if action.kind == "delay":
            time.sleep(action.delay_s)
            return False
        return True

    def hits(self) -> dict[str, int]:
        """How many times each armed failpoint has actually fired."""
        with self._lock:
            return {name: a.hits for name, a in self._armed.items()
                    if a.hits}


#: The process-wide registry every instrumented site reports to.
_REGISTRY = FailpointRegistry()


def registry() -> FailpointRegistry:
    return _REGISTRY


def register(name: str) -> str:
    """Declare a failpoint at import time; returns ``name`` for reuse."""
    return _REGISTRY.register(name)


def reset_after_fork() -> FailpointRegistry:
    """Replace the process-wide registry with a fresh one after ``fork``.

    A forked child (a :mod:`repro.cluster` worker) inherits the parent's
    registry *including* its lock state and armed actions; if another
    parent thread held the lock at fork time, the child's first armed
    ``fire()`` would deadlock.  Building a new registry — keeping only
    the import-time site names, dropping armed actions — makes the child
    self-contained; worker faults are re-armed explicitly over the
    control channel.
    """
    global _REGISTRY
    fresh = FailpointRegistry()
    # Read _known without the (possibly wedged) inherited lock: the child
    # is single-threaded at this point, so nothing can be mutating it.
    for name in set(_REGISTRY._known):
        fresh.register(name)
    _REGISTRY = fresh
    return fresh


def fire(name: str) -> None:
    """Site hook: no-op unless armed (one bool check when disarmed)."""
    if not _REGISTRY.armed_any:
        return
    _REGISTRY.fire(name)


def triggered(name: str) -> bool:
    """Site hook for behavioural faults; False unless armed and firing."""
    if not _REGISTRY.armed_any:
        return False
    return _REGISTRY.triggered(name)
