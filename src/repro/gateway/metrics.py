"""Gateway observability: ring-buffer time series + Prometheus exposition.

Two collectors feed the ``/metrics`` and ``/v1/stats`` endpoints:

* :class:`LatencyWindow` — recent request latencies per label (per tenant
  and per priority class): a bounded reservoir for on-demand p50/p95 plus a
  cumulative histogram.  Per-tenant latency is a gateway concern because
  only the gateway sees tenant identity.
* :class:`StatsSampler` — a daemon thread that snapshots
  ``CompileService.stats()`` every ``interval`` seconds into a ring buffer
  (`deque(maxlen=...)`), giving ``/v1/stats`` a queue-depth / worker-count /
  hit-rate time series without any external metrics stack.

:func:`render_prometheus` serialises the service stats (including the
always-on per-span histograms), the gateway latency histogram and the tenant
and fair-share counters in the Prometheus text exposition format, so a real
deployment can scrape the gateway directly.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque

from ..obs import BUCKETS, Histograms

__all__ = ["LatencyWindow", "StatsSampler", "render_prometheus", "quantile"]


def quantile(samples: "list[float]", q: float) -> float:
    """Nearest-rank quantile over unsorted samples (0.0 for an empty list).

    The rank is rounded half-up via ``floor(rank + 0.5)`` — ``round()``
    would use banker's rounding (``round(0.5) == 0``), which picks the
    sample *below* the requested rank whenever ``q * (n - 1)`` lands exactly
    on ``.5`` (e.g. the median of two samples).
    """
    if not samples:
        return 0.0
    ordered = sorted(samples)
    index = min(
        len(ordered) - 1, max(0, int(math.floor(q * (len(ordered) - 1) + 0.5)))
    )
    return ordered[index]


class LatencyWindow:
    """Recent request latencies, bucketed by a label (tenant, priority, ...).

    Two views over the same observations:

    * a bounded reservoir per label from which p50/p95 are computed on
      demand (:meth:`summary`) — what ``/v1/stats`` and the dashboard show;
    * a cumulative histogram per label (:meth:`histogram`, the shared
      :class:`~repro.obs.Histograms` over :data:`~repro.obs.BUCKETS`), which
      a scrape stack can sum across instances and re-quantile server-side.
    """

    def __init__(self, window: int = 512):
        self.window = window
        self._buckets: dict[str, deque] = {}
        self._histograms = Histograms()
        self._lock = threading.Lock()

    def observe(self, label: str, seconds: float) -> None:
        with self._lock:
            bucket = self._buckets.get(label)
            if bucket is None:
                bucket = self._buckets[label] = deque(maxlen=self.window)
            bucket.append(seconds)
            # Under the window lock, so every label summary() sees also
            # has a histogram row.
            self._histograms.observe(label, seconds)

    def histogram(self) -> dict:
        """Per-label :meth:`~repro.obs.Histograms.snapshot` (cumulative buckets)."""
        return self._histograms.snapshot()

    def summary(self) -> dict:
        """``{label: {count, window, p50, p95, mean}}`` over the retained window."""
        with self._lock:
            snapshot = {label: list(bucket) for label, bucket in self._buckets.items()}
        totals = self._histograms.snapshot()
        return {
            label: {
                "count": totals[label]["count"],
                "window": len(samples),
                "p50_seconds": quantile(samples, 0.50),
                "p95_seconds": quantile(samples, 0.95),
                "mean_seconds": sum(samples) / len(samples) if samples else 0.0,
            }
            for label, samples in snapshot.items()
        }


class StatsSampler:
    """Ring-buffer time series over a ``stats()``-shaped callable."""

    def __init__(self, stats_fn, *, interval: float = 1.0, capacity: int = 600):
        self._stats_fn = stats_fn
        self.interval = interval
        self._samples: deque = deque(maxlen=capacity)
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: "threading.Thread | None" = None

    def start(self) -> "StatsSampler":
        if self._thread is None:
            self._thread = threading.Thread(
                target=self._loop, name="gateway-stats-sampler", daemon=True
            )
            self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2)
            self._thread = None

    def sample_once(self) -> "dict | None":
        """Take one sample immediately (also what the loop calls)."""
        try:
            stats = self._stats_fn()
        except Exception:  # noqa: BLE001 - a dying service must not kill sampling
            return None
        point = {
            "time": time.time(),
            "queue_depth": stats.get("queue_depth", 0),
            "in_flight": stats.get("in_flight", 0),
            "submitted": stats.get("submitted", 0),
            "completed": stats.get("completed", 0),
            "failed": stats.get("failed", 0),
            "cache_hit_rate": stats.get("cache", {}).get("hit_rate", 0.0),
            "lane_workers": {
                name: lane.get("workers", 0)
                for name, lane in stats.get("lanes", {}).items()
            },
        }
        with self._lock:
            self._samples.append(point)
        return point

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample_once()

    def series(self, last: "int | None" = None) -> list[dict]:
        with self._lock:
            samples = list(self._samples)
        return samples[-last:] if last else samples


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _line(name: str, value, labels: "dict | None" = None) -> str:
    if labels:
        body = ",".join(f'{k}="{_escape(str(v))}"' for k, v in sorted(labels.items()))
        return f"{name}{{{body}}} {value}"
    return f"{name} {value}"


#: ``le`` label values for :data:`~repro.obs.BUCKETS` plus ``+Inf``
_LE = [format(bound, "g") for bound in BUCKETS] + ["+Inf"]


def _histogram_rows(family: str, label: str, histograms: dict) -> list[str]:
    """``_bucket``/``_sum``/``_count`` rows for a ``Histograms.snapshot()``."""
    rows = []
    for value, entry in sorted(histograms.items()):
        for le, count in zip(_LE, entry["buckets"]):
            rows.append(_line(f"{family}_bucket", count, {label: value, "le": le}))
        rows.append(_line(f"{family}_sum", round(entry["sum"], 6), {label: value}))
        rows.append(_line(f"{family}_count", entry["count"], {label: value}))
    return rows


def render_prometheus(
    service_stats: dict,
    *,
    gateway_counters: "dict | None" = None,
    tenant_stats: "dict | None" = None,
    latency: "LatencyWindow | None" = None,
    health: "dict | None" = None,
) -> str:
    """Serialise service + gateway metrics in Prometheus text format."""
    lines: list[str] = []

    def metric(name: str, kind: str, help_text: str, rows: list[str]) -> None:
        if not rows:
            return
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {kind}")
        lines.extend(rows)

    metric(
        "repro_service_requests_total",
        "counter",
        "Requests accepted by the compile service.",
        [_line("repro_service_requests_total", service_stats.get("submitted", 0))],
    )
    metric(
        "repro_service_completed_total",
        "counter",
        "Requests resolved (including structured failures).",
        [_line("repro_service_completed_total", service_stats.get("completed", 0))],
    )
    metric(
        "repro_service_failed_total",
        "counter",
        "Requests resolved as failures (compile errors, deadline expiries).",
        [_line("repro_service_failed_total", service_stats.get("failed", 0))],
    )
    metric(
        "repro_service_queue_depth",
        "gauge",
        "Requests waiting in the lane queues.",
        [_line("repro_service_queue_depth", service_stats.get("queue_depth", 0))],
    )
    metric(
        "repro_service_in_flight",
        "gauge",
        "Requests currently being compiled.",
        [_line("repro_service_in_flight", service_stats.get("in_flight", 0))],
    )
    cache = service_stats.get("cache", {})
    metric(
        "repro_service_cache_hit_rate",
        "gauge",
        "Service result-cache hit rate.",
        [_line("repro_service_cache_hit_rate", round(cache.get("hit_rate", 0.0), 6))],
    )
    lanes = service_stats.get("lanes", {})
    metric(
        "repro_service_lane_workers",
        "gauge",
        "Live worker threads per backend lane.",
        [
            _line("repro_service_lane_workers", lane.get("workers", 0), {"lane": name})
            for name, lane in sorted(lanes.items())
        ],
    )
    metric(
        "repro_service_lane_queue_depth",
        "gauge",
        "Queued requests per backend lane.",
        [
            _line(
                "repro_service_lane_queue_depth", lane.get("queue_depth", 0), {"lane": name}
            )
            for name, lane in sorted(lanes.items())
        ],
    )
    spans = service_stats.get("spans", {})
    metric(
        "repro_span_duration_seconds",
        "histogram",
        "Wall time per pipeline stage, pass and kernel (cumulative buckets).",
        _histogram_rows("repro_span_duration_seconds", "span", spans),
    )
    metric(
        "repro_span_items_total",
        "counter",
        "Work items (gates, circuits) processed per timed span.",
        [
            _line("repro_span_items_total", entry["items"], {"span": name})
            for name, entry in sorted(spans.items())
            if entry["items"]
        ],
    )
    if health is not None:
        metric(
            "repro_gateway_ready",
            "gauge",
            "1 while the gateway accepts new work, 0 while draining/stopped.",
            [_line("repro_gateway_ready", 1 if health.get("status") == "ok" else 0)],
        )
    for name, value in sorted((gateway_counters or {}).items()):
        metric(
            f"repro_gateway_{name}_total",
            "counter",
            f"Gateway counter: {name.replace('_', ' ')}.",
            [_line(f"repro_gateway_{name}_total", value)],
        )
    tenant_rows_served = []
    tenant_rows_limited = []
    for name, entry in sorted((tenant_stats or {}).items()):
        tenant_rows_served.append(
            _line("repro_gateway_tenant_served_total", entry["served"], {"tenant": name})
        )
        tenant_rows_limited.append(
            _line(
                "repro_gateway_tenant_rate_limited_total",
                entry["rate_limited"],
                {"tenant": name},
            )
        )
    metric(
        "repro_gateway_tenant_served_total",
        "counter",
        "Accepted compile submissions per tenant.",
        tenant_rows_served,
    )
    metric(
        "repro_gateway_tenant_rate_limited_total",
        "counter",
        "429 responses per tenant.",
        tenant_rows_limited,
    )
    if latency is not None:
        metric(
            "repro_gateway_request_latency_seconds",
            "histogram",
            "Request latency per tenant / priority class (cumulative buckets).",
            _histogram_rows(
                "repro_gateway_request_latency_seconds", "label", latency.histogram()
            ),
        )
    return "\n".join(lines) + "\n"
