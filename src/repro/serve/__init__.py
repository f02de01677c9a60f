"""repro.serve — the concurrent inference-serving subsystem.

The layer that amortises SpaceFusion's compilation cost across traffic:

* :class:`TieredScheduleCache` — in-memory LRU over the on-disk
  :class:`~repro.core.serialize.ScheduleCache`, with single-flight
  compilation;
* :class:`InferenceSession` — owns one compiled workload (compile through
  the cache, lower once via the compiled execution engine — or interpret
  with ``engine="interpreter"`` — execute requests, degrade gracefully);
* :class:`FusionServer` — thread-pooled front-end with dynamic batching
  and per-request timeouts;
* :class:`ServeMetrics` — the counters/histograms behind ``repro serve``'s
  serve-stats report.
"""

from .batching import (
    InvalidRequestError,
    Overloaded,
    Request,
    RequestQueue,
    WorkerCrashed,
    batch_key,
    validate_feeds,
)
from ..store import HAVE_FCNTL, FileLock
from .cache import TieredScheduleCache
from .metrics import Histogram, ServeMetrics
from .server import FusionServer, ServerError
from .session import (
    ENGINE_COMPILED,
    ENGINE_INTERPRETER,
    ENGINES,
    InferenceSession,
    SessionError,
    SessionInfo,
    SessionReply,
)

__all__ = [
    "ENGINES",
    "ENGINE_COMPILED",
    "ENGINE_INTERPRETER",
    "FileLock",
    "FusionServer",
    "HAVE_FCNTL",
    "Histogram",
    "WorkerCrashed",
    "InferenceSession",
    "InvalidRequestError",
    "Overloaded",
    "Request",
    "RequestQueue",
    "ServeMetrics",
    "ServerError",
    "SessionError",
    "SessionInfo",
    "SessionReply",
    "TieredScheduleCache",
    "batch_key",
    "validate_feeds",
]
