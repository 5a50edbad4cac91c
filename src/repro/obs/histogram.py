"""Always-on cumulative histograms: the one timing sink.

Every timed site in the stack records into one process-global
:class:`Histograms` keyed by site name — pipeline stages through
:func:`~repro.obs.timed_span` (which also emits a span when a trace is
active), per-pass timings and the numeric kernels through the span-free
:class:`timed`.  Counts are cumulative and never reset in a serving process,
which is the Prometheus histogram contract: ``CompileService.stats()["spans"]``
carries :meth:`Histograms.snapshot`, and ``/metrics`` exports it as
``repro_span_duration_seconds{span=...}``.  The gateway's per-tenant latency
histogram is the same class over the same :data:`BUCKETS` table.

Process-lane workers reset their (per-process) sink at the start of each task
and ship the snapshot home as the task's delta; the parent folds it in with
:meth:`Histograms.merge`.
"""

from __future__ import annotations

import bisect
import itertools
import os
import threading
import time

__all__ = ["BUCKETS", "Histograms", "span_histograms", "timed"]

#: histogram upper bounds in seconds, 100 µs to 10 s (``+Inf`` is implicit)
BUCKETS = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)


class _Row:
    __slots__ = ("counts", "sum", "items")

    def __init__(self) -> None:
        #: per-bucket (non-cumulative) counts; the last slot is ``+Inf``
        self.counts = [0] * (len(BUCKETS) + 1)
        self.sum = 0.0
        self.items = 0


class Histograms:
    """Thread-safe per-label cumulative histograms over :data:`BUCKETS`.

    Besides the duration histogram each label keeps an ``items`` total: the
    work units (gates, circuits) processed under it, so throughput-style
    counters ride along with the timings.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._rows: dict[str, _Row] = {}

    def _row(self, label: str) -> _Row:
        row = self._rows.get(label)
        if row is None:
            row = self._rows[label] = _Row()
        return row

    def observe(self, label: str, seconds: float, items: int = 0) -> None:
        index = bisect.bisect_left(BUCKETS, seconds)
        with self._lock:
            row = self._row(label)
            row.counts[index] += 1
            row.sum += seconds
            row.items += items

    def snapshot(self) -> dict:
        """``{label: {"buckets", "sum", "count", "items"}}``, labels sorted.

        ``buckets`` holds cumulative counts aligned with :data:`BUCKETS`
        plus a trailing ``+Inf`` entry equal to ``count`` — plain lists and
        numbers, so a snapshot is both picklable and JSON-safe.
        """
        with self._lock:
            rows = [
                (label, list(row.counts), row.sum, row.items)
                for label, row in self._rows.items()
            ]
        out = {}
        for label, counts, total, items in sorted(rows):
            cumulative = list(itertools.accumulate(counts))
            out[label] = {
                "buckets": cumulative,
                "sum": total,
                "count": cumulative[-1],
                "items": items,
            }
        return out

    def merge(self, snapshot: dict) -> None:
        """Fold another sink's :meth:`snapshot` into this one."""
        with self._lock:
            for label, entry in snapshot.items():
                row = self._row(label)
                previous = 0
                for i, cumulative in enumerate(entry["buckets"]):
                    row.counts[i] += cumulative - previous
                    previous = cumulative
                row.sum += entry["sum"]
                row.items += entry["items"]

    def reset(self) -> None:
        with self._lock:
            self._rows.clear()

    def _after_fork(self) -> None:
        # A forked child inherits the parent's counts and, if another thread
        # held it mid-fork, a locked lock: start the child clean.
        self._lock = threading.Lock()
        self._rows = {}


#: the process-global sink every timed site records into
_SPANS = Histograms()
os.register_at_fork(after_in_child=_SPANS._after_fork)


def span_histograms() -> Histograms:
    """The process-global per-span-name :class:`Histograms`."""
    return _SPANS


class timed:
    """``with timed(name, items=n):`` times the block into :func:`span_histograms`.

    Span-free: for hot sites whose timings are wanted in aggregate but must
    not appear in trace trees (per-pass timers, numeric kernels).  A slotted
    class rather than a generator context manager, because it runs on every
    pass application and costs about half as much.
    """

    __slots__ = ("name", "items", "start")

    def __init__(self, name: str, items: int = 0):
        self.name = name
        self.items = items

    def __enter__(self) -> None:
        self.start = time.perf_counter()

    def __exit__(self, *exc) -> None:
        _SPANS.observe(self.name, time.perf_counter() - self.start, self.items)
