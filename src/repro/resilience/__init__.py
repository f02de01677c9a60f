"""repro.resilience — fault injection, retries, and circuit breaking.

The robustness layer for the serving stack: deterministic failpoints
(:mod:`repro.resilience.faults`) wired into every failure mode of the
compile → cache → execute → serve pipeline; retry of transient errors
with backoff, and circuit breaking (:mod:`repro.resilience.retry`); and a
chaos harness (:mod:`repro.resilience.chaos`, run via ``repro chaos``)
that injects a seeded fault schedule against a live
:class:`~repro.serve.server.FusionServer` and asserts the end-to-end
invariants — every request answered exactly once, every answer finite
and equal to the unfused reference, the server drains clean.

:mod:`~repro.resilience.chaos` imports the serving stack, so it is kept
out of this package namespace to avoid import cycles (``core`` and
``runtime`` modules import :mod:`~repro.resilience.faults`).
"""

from .faults import (
    FailpointError,
    FailpointRegistry,
    FaultInjected,
    fire,
    register,
    registry,
    triggered,
)
from .retry import CLOSED, HALF_OPEN, OPEN, CircuitBreaker, RetryPolicy

__all__ = [
    "CLOSED",
    "CircuitBreaker",
    "FailpointError",
    "FailpointRegistry",
    "FaultInjected",
    "HALF_OPEN",
    "OPEN",
    "RetryPolicy",
    "fire",
    "register",
    "registry",
    "triggered",
]
