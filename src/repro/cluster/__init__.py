"""repro.cluster — the sharded multi-worker serving tier.

Scales :mod:`repro.serve` past one process:

* :class:`HashRing` — consistent-hash placement of workloads onto
  workers (deterministic, fixed when the supervisor is built);
* :class:`WorkerConfig` / :func:`worker_main` — the forked worker
  process: a full in-process :class:`~repro.serve.server.FusionServer`
  behind a duplex pipe, sharing one disk schedule cache with the fleet;
* :mod:`~repro.cluster.arena` — the per-worker memfd slot arena that
  carries feeds and replies across the process boundary without pickle
  (only small descriptors ride the pipe);
* :class:`~repro.cluster.book.RequestBook` — the clocked, I/O-free
  book where every open request's admission / routing / resolve /
  expire / crash-drain decision is made, admission under an
  :class:`AdmissionPolicy` (copies out per worker and per tenant) at
  the cluster front door, before a request crosses a process boundary;
* :class:`ClusterSupervisor` — forks the workers, routes requests along
  the ring (with replica failover), health-checks with heartbeats,
  restarts crashed workers behind per-worker circuit breakers, and
  drains gracefully.
"""

from .book import SHED_CAPACITY, SHED_TENANT, SHED_WORKER_DOWN, AdmissionPolicy
from .sharding import HashRing

__all__ = [
    "AdmissionPolicy",
    "ClusterConfig",
    "ClusterError",
    "ClusterShed",
    "ClusterSupervisor",
    "HashRing",
    "SHED_CAPACITY",
    "SHED_TENANT",
    "SHED_WORKER_DOWN",
    "WorkerConfig",
    "build_server",
    "worker_main",
]


def __getattr__(name: str):
    # The forking half loads on first use: importing a pure module of
    # this package (book, sharding) must not pull in
    # multiprocessing, signal, the worker or the arena.
    if name in __all__:
        from . import supervisor, worker

        return getattr(supervisor if hasattr(supervisor, name) else worker,
                       name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
