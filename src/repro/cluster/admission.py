"""Priority- and tenant-aware admission control for the cluster tier.

The single-process :class:`~repro.serve.batching.RequestQueue` already
bounds depth; the cluster front door layers *policy* on top of that
bound: when a worker's outstanding window fills, not all traffic is
equal —

* **priority headroom** — each priority class may only use a fraction of
  a worker's outstanding slots, so low-priority (batch/backfill) traffic
  sheds first and high-priority traffic still finds room during bursts;
* **tenant fair share** — no tenant may hold more than ``tenant_share``
  of one worker's slots, so a single runaway client cannot starve the
  rest of the fleet regardless of priority.

Decisions are made (and slots reserved) *before* a request crosses the
process boundary to a worker, so a shed costs one dict lookup — the
request never serialises feeds or occupies pipe bandwidth.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from typing import Mapping

#: Priority classes, highest first.  Anything outside the map is clamped
#: to the lowest class.
PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW = 0, 1, 2

#: Fraction of a worker's outstanding window each class may fill.  High
#: priority may use the whole window; lower classes hit their ceiling
#: earlier and shed, leaving headroom for the classes above them.
DEFAULT_PRIORITY_HEADROOM: Mapping[int, float] = {
    PRIORITY_HIGH: 1.0,
    PRIORITY_NORMAL: 0.85,
    PRIORITY_LOW: 0.6,
}

#: Shed reasons reported by :meth:`AdmissionController.admit`.
SHED_CAPACITY = "capacity"      # window full even for high priority
SHED_PRIORITY = "priority"      # class headroom exhausted
SHED_TENANT = "tenant"          # tenant over its fair share
SHED_WORKER_DOWN = "worker_down"  # owner crashed, restart breaker open


@dataclass
class AdmissionPolicy:
    """Static admission configuration shared by every worker slot pool."""

    max_outstanding_per_worker: int = 64
    priority_headroom: Mapping[int, float] = field(
        default_factory=lambda: dict(DEFAULT_PRIORITY_HEADROOM))
    #: Max fraction of one worker's slots a single tenant may hold
    #: (None disables tenant fairness).
    tenant_share: float | None = 0.5

    def __post_init__(self) -> None:
        if self.max_outstanding_per_worker < 1:
            raise ValueError("max_outstanding_per_worker must be >= 1")
        for p, frac in self.priority_headroom.items():
            if not 0.0 < frac <= 1.0:
                raise ValueError(
                    f"priority {p} headroom {frac} must be in (0, 1]")
        if self.tenant_share is not None and not 0.0 < self.tenant_share <= 1.0:
            raise ValueError("tenant_share must be in (0, 1] or None")

    def limit_for(self, priority: int) -> int:
        """Outstanding ceiling for one priority class (at least 1)."""
        frac = self.priority_headroom.get(
            priority, min(self.priority_headroom.values(), default=1.0))
        return max(1, math.floor(self.max_outstanding_per_worker * frac))

    def tenant_limit(self) -> int | None:
        if self.tenant_share is None:
            return None
        return max(1, math.floor(
            self.max_outstanding_per_worker * self.tenant_share))


class AdmissionController:
    """Thread-safe outstanding-slot accounting per worker and tenant.

    The supervisor calls :meth:`admit` before dispatching (a non-None
    return is the shed reason; ``None`` reserves a slot) and
    :meth:`release` when the request completes, fails, or its worker
    dies.
    """

    def __init__(self, policy: AdmissionPolicy | None = None) -> None:
        self.policy = policy or AdmissionPolicy()
        self._lock = threading.Lock()
        self._outstanding: dict[str, int] = {}
        self._by_tenant: dict[tuple[str, str], int] = {}

    def admit(self, worker: str, tenant: str = "default",
              priority: int = PRIORITY_NORMAL) -> str | None:
        """Try to reserve one slot on ``worker``; shed reason or None."""
        pol = self.policy
        with self._lock:
            used = self._outstanding.get(worker, 0)
            if used >= pol.max_outstanding_per_worker:
                return SHED_CAPACITY
            if used >= pol.limit_for(priority):
                return SHED_PRIORITY
            tlimit = pol.tenant_limit()
            if (tlimit is not None
                    and self._by_tenant.get((worker, tenant), 0) >= tlimit):
                return SHED_TENANT
            self._outstanding[worker] = used + 1
            tkey = (worker, tenant)
            self._by_tenant[tkey] = self._by_tenant.get(tkey, 0) + 1
            return None

    def release(self, worker: str, tenant: str = "default") -> None:
        with self._lock:
            used = self._outstanding.get(worker, 0)
            if used <= 1:
                self._outstanding.pop(worker, None)
            else:
                self._outstanding[worker] = used - 1
            tkey = (worker, tenant)
            t_used = self._by_tenant.get(tkey, 0)
            if t_used <= 1:
                self._by_tenant.pop(tkey, None)
            else:
                self._by_tenant[tkey] = t_used - 1

    def outstanding(self, worker: str) -> int:
        with self._lock:
            return self._outstanding.get(worker, 0)

    def snapshot(self) -> dict:
        with self._lock:
            return {
                "outstanding": dict(self._outstanding),
                "outstanding_total": sum(self._outstanding.values()),
                "by_tenant": {f"{w}/{t}": n
                              for (w, t), n in self._by_tenant.items()},
            }
