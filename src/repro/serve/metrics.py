"""Serving metrics: counters and latency histograms for the runtime.

Every component of :mod:`repro.serve` reports into one
:class:`ServeMetrics` instance — compile cache tier hits and misses, queue
depth at enqueue time, realised batch sizes, per-request latency, and
fallback downgrades — so a single ``render_report()`` call gives the
operator view (`repro serve` prints it when the demo drains).

All mutation goes through one lock; the hot-path cost is a dict update,
which is what a production counter library would also do per sample.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

#: Histogram bucket upper bounds in seconds (last bucket is +inf).
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0,
)


@dataclass(slots=True)
class Histogram:
    """Fixed-bucket histogram with sum/count (Prometheus-style)."""

    buckets: tuple[float, ...] = LATENCY_BUCKETS_S
    #: One count per bucket plus the overflow; ``()`` until the first
    #: sample, so a registry's unused histograms hold no list.
    counts: list[int] | tuple = ()
    total: float = 0.0
    samples: int = 0
    max_seen: float = 0.0

    def _filled(self) -> list[int]:
        if not self.counts:
            self.counts = [0] * (len(self.buckets) + 1)
        return self.counts

    def observe(self, value: float) -> None:
        i = 0
        while i < len(self.buckets) and value > self.buckets[i]:
            i += 1
        self._filled()[i] += 1
        self.total += value
        self.samples += 1
        self.max_seen = max(self.max_seen, value)

    @property
    def mean(self) -> float:
        return self.total / self.samples if self.samples else 0.0

    def quantile(self, q: float) -> float:
        """Upper bucket bound containing the q-quantile sample."""
        if not self.samples:
            return 0.0
        rank = q * self.samples
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank:
                return (self.buckets[i] if i < len(self.buckets)
                        else self.max_seen)
        return self.max_seen

    def merge(self, other: "Histogram") -> None:
        assert self.buckets == other.buckets
        counts = self._filled()
        for i, c in enumerate(other.counts):
            counts[i] += c
        self.total += other.total
        self.samples += other.samples
        self.max_seen = max(self.max_seen, other.max_seen)


class ServeMetrics:
    """Thread-safe metrics registry for one serving process."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.request_latency = Histogram()
        self.compile_latency = Histogram()
        self.queue_wait = Histogram()
        self.batch_sizes = Histogram(buckets=(1, 2, 4, 8, 16, 32, 64))
        self.queue_depths = Histogram(buckets=(0, 1, 2, 4, 8, 16, 32, 64))
        #: Per-workload request latency (exported as count and p95).
        self._workload_latency: dict[str, Histogram] = {}

    def _histograms(self) -> tuple[tuple[str, Histogram], ...]:
        return (("request_latency", self.request_latency),
                ("compile_latency", self.compile_latency),
                ("queue_wait", self.queue_wait),
                ("batch_size", self.batch_sizes),
                ("queue_depth", self.queue_depths))

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def inc(self, name: str, by: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + by

    def get(self, name: str) -> int:
        with self._lock:
            return self.counters.get(name, 0)

    def set_gauge(self, name: str, value: float) -> None:
        """Set a point-in-time gauge (last write wins, e.g. breaker state)."""
        with self._lock:
            self.gauges[name] = float(value)

    def add_gauge(self, name: str, delta: float) -> None:
        """Accumulate into a float gauge (e.g. tuning wall-time saved).

        Counters are integers here; this is the float-valued analogue for
        quantities that accumulate fractional seconds.
        """
        with self._lock:
            self.gauges[name] = self.gauges.get(name, 0.0) + float(delta)

    def get_gauge(self, name: str, default: float = 0.0) -> float:
        with self._lock:
            return self.gauges.get(name, default)

    def _derived_gauges(self) -> dict[str, float]:
        """Gauges computed from counters at read time (lock held).

        ``shed_rate`` is the fraction of submit attempts rejected by
        admission control — exported directly so reports and scrapers
        don't each re-derive it from two counters.
        """
        shed = self.counters.get("requests.shed", 0)
        submitted = self.counters.get("requests.submitted", 0)
        return {"shed_rate": shed / submitted if submitted else 0.0}

    def observe_request(self, latency_s: float,
                        workload: str | None = None) -> None:
        with self._lock:
            self.counters["requests_served"] = \
                self.counters.get("requests_served", 0) + 1
            self.request_latency.observe(latency_s)
            if workload is not None:
                hist = self._workload_latency.get(workload)
                if hist is None:
                    hist = self._workload_latency[workload] = Histogram()
                hist.observe(latency_s)

    def observe_compile(self, latency_s: float) -> None:
        with self._lock:
            self.compile_latency.observe(latency_s)

    def observe_batch(self, size: int) -> None:
        with self._lock:
            self.counters["batches_dispatched"] = \
                self.counters.get("batches_dispatched", 0) + 1
            self.batch_sizes.observe(size)

    def observe_queue_depth(self, depth: int) -> None:
        with self._lock:
            self.queue_depths.observe(depth)

    def observe_queue_wait(self, wait_s: float) -> None:
        with self._lock:
            self.queue_wait.observe(wait_s)

    def record_fallback(self, reason: str) -> None:
        with self._lock:
            self.counters["fallbacks"] = self.counters.get("fallbacks", 0) + 1
            key = f"fallbacks.{reason}"
            self.counters[key] = self.counters.get(key, 0) + 1

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Point-in-time copy of every counter plus histogram summaries."""
        with self._lock:
            snap = dict(self.counters)
            for name, value in {**self.gauges,
                                **self._derived_gauges()}.items():
                snap[f"gauge.{name}"] = value
            for name, hist in self._histograms():
                snap[f"{name}.count"] = hist.samples
                snap[f"{name}.mean"] = hist.mean
                snap[f"{name}.p50"] = hist.quantile(0.50)
                snap[f"{name}.p95"] = hist.quantile(0.95)
                snap[f"{name}.p99"] = hist.quantile(0.99)
                snap[f"{name}.max"] = hist.max_seen
            for wl, hist in self._workload_latency.items():
                snap[f"workload_latency.{wl}.count"] = hist.samples
                snap[f"workload_latency.{wl}.p95"] = hist.quantile(0.95)
            return snap

    def render_report(self) -> str:
        """Human-readable serve-stats report (the `repro serve` epilogue)."""
        snap = self.snapshot()
        counter_keys = sorted(
            k for k in snap
            if isinstance(snap[k], int)
            and ("." not in k
                 or k.startswith(("fallbacks.", "requests.", "cache.",
                                  "breaker.", "plans.", "faults.",
                                  "lower.", "tunedb.", "tuning.",
                                  "wire."))))
        lines = ["serve-stats", "==========="]
        lines.append("counters:")
        for name in counter_keys:
            lines.append(f"  {name:<24} {snap[name]}")
        lines.append("latency (seconds):")
        for name in ("request_latency", "compile_latency", "queue_wait"):
            lines.append(
                f"  {name:<16} n={snap[f'{name}.count']:<5} "
                f"mean={snap[f'{name}.mean']:.6f} "
                f"p50<={snap[f'{name}.p50']:.6f} "
                f"p95<={snap[f'{name}.p95']:.6f} "
                f"p99<={snap[f'{name}.p99']:.6f} "
                f"max={snap[f'{name}.max']:.6f}")
        lines.append("distributions:")
        for name in ("batch_size", "queue_depth"):
            lines.append(
                f"  {name:<16} n={snap[f'{name}.count']:<5} "
                f"mean={snap[f'{name}.mean']:.2f} "
                f"p50<={snap[f'{name}.p50']:g} max={snap[f'{name}.max']:g}")
        return "\n".join(lines)

    #: ``report()`` is the documented operator entry point; ``render_report``
    #: remains for callers from before the observability layer.
    report = render_report

    def to_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text-exposition dump of every counter and histogram.

        Counter names are sanitised (dots become underscores); histograms
        follow the convention of cumulative ``_bucket{le=...}`` series
        plus ``_sum`` and ``_count``.
        """
        def sanitize(name: str) -> str:
            return "".join(c if c.isalnum() or c == "_" else "_"
                           for c in name)

        lines: list[str] = []
        with self._lock:
            for name in sorted(self.counters):
                metric = f"{prefix}_{sanitize(name)}"
                lines.append(f"# TYPE {metric} counter")
                lines.append(f"{metric} {self.counters[name]}")
            gauges = {**self.gauges, **self._derived_gauges()}
            for name in sorted(gauges):
                metric = f"{prefix}_{sanitize(name)}"
                lines.append(f"# TYPE {metric} gauge")
                lines.append(f"{metric} {gauges[name]:g}")
            for name, hist in self._histograms():
                metric = f"{prefix}_{sanitize(name)}"
                lines.append(f"# TYPE {metric} histogram")
                cumulative = 0
                counts = hist._filled()
                for bound, count in zip(hist.buckets, counts):
                    cumulative += count
                    lines.append(
                        f'{metric}_bucket{{le="{bound:g}"}} {cumulative}')
                cumulative += counts[-1]
                lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
                lines.append(f"{metric}_sum {hist.total:g}")
                lines.append(f"{metric}_count {hist.samples}")
        return "\n".join(lines) + "\n"
