"""Request tracing: spans, trace contexts, and their propagation seams.

One compile request crosses a lot of threads on its way through the stack —
an HTTP handler thread in the gateway (which also schedules it in the
service), a lane worker thread (or a lane *process*), and finally the pass
pipeline.  The always-on histograms of :mod:`repro.obs.histogram` answer
"how much time does the fleet spend in stage X overall"; this module answers
"where did *this* request spend its 1.3 seconds".

The building blocks are deliberately stdlib-only and self-contained:

* :class:`Span` — one named, timed operation.  Spans form a tree (a span's
  children are the operations it performed); the root of the tree carries the
  ``trace_id`` every other span shares.  Clocks are monotonic
  (``perf_counter`` for durations) with a wall-clock start stamp for display.
* :class:`SpanContext` — the picklable ``(trace_id, span_id)`` pair used to
  continue a trace across a boundary that cannot share the ``Span`` object
  itself: the service RPC protocol and the process-lane pickle boundary.

Propagation happens two ways, mirroring how the request actually travels:

* **Thread-local** — :func:`activate` installs a span as the calling thread's
  current span; :func:`span` / :func:`timed_span` then attach children to it.
  Instrumented library code (the pass pipeline) never needs to see a request
  object: if a span is active on its thread it records, otherwise no span
  is built (``timed_span`` still feeds its always-on histogram), which is
  what keeps tracing strictly pay-for-what-you-use.
* **Explicit context** — code that hops threads (a submitting thread hands
  requests to lane workers) or processes (lane pools, the RPC server)
  carries a :class:`Span` or :class:`SpanContext` in its payload and
  re-activates it on the far side with :func:`activate`, or parents new spans
  onto it via ``Span(..., context=ctx)``.

Span trees serialise to plain JSON-able dicts (:meth:`Span.to_dict` /
:meth:`Span.from_dict`), which is how a finished trace travels back to the
caller inside ``CompilationResult.metadata["trace"]``.
"""

from __future__ import annotations

import os
import re
import threading
import time
from contextlib import contextmanager
from typing import NamedTuple

from .histogram import span_histograms

__all__ = [
    "Span",
    "SpanContext",
    "activate",
    "as_context",
    "current_span",
    "new_span_id",
    "new_trace_id",
    "span",
    "timed_span",
    "valid_trace_id",
]

#: inbound trace ids (e.g. an ``X-Repro-Trace-Id`` header) must look like this
#: — anything else is replaced with a freshly minted id rather than echoed
#: back verbatim into logs and metrics
_TRACE_ID_RE = re.compile(r"^[A-Za-z0-9_-]{4,128}$")


def new_trace_id() -> str:
    """A fresh 128-bit trace id (32 hex chars)."""
    return os.urandom(16).hex()


def new_span_id() -> str:
    """A fresh 64-bit span id (16 hex chars)."""
    return os.urandom(8).hex()


def valid_trace_id(value) -> bool:
    """Whether ``value`` is acceptable as a caller-supplied trace id."""
    return isinstance(value, str) and bool(_TRACE_ID_RE.match(value))


class SpanContext(NamedTuple):
    """The picklable continuation point of a trace: ``(trace_id, span_id)``.

    Everything needed to parent new spans onto an existing trace from another
    thread, process, or host — and nothing else, so it crosses the service's
    RPC protocol and the process-lane pickle boundary as plain data.
    """

    trace_id: str
    span_id: str

    def to_dict(self) -> dict:
        return {"trace_id": self.trace_id, "span_id": self.span_id}


def as_context(trace) -> "SpanContext | None":
    """Normalise the accepted trace carriers to a :class:`SpanContext`.

    Accepts a :class:`Span`, a :class:`SpanContext`, a ``{"trace_id",
    "span_id"}`` dict (the RPC wire shape), or ``None`` — in which case the
    calling thread's current span (if any) is used, which is what makes
    ambient propagation work without threading a context argument through
    every call site.
    """
    if trace is None:
        active = current_span()
        return active.context() if active is not None else None
    if isinstance(trace, SpanContext):
        return trace
    if isinstance(trace, Span):
        return trace.context()
    if isinstance(trace, dict) and "trace_id" in trace and "span_id" in trace:
        return SpanContext(str(trace["trace_id"]), str(trace["span_id"]))
    raise TypeError(
        f"cannot interpret {trace!r} as a trace context; expected a Span, "
        "SpanContext, {'trace_id', 'span_id'} dict, or None"
    )


class Span:
    """One named, timed operation in a trace tree.

    Children may be added from any thread (the list is guarded by a lock);
    :meth:`finish` is idempotent, so racing completion paths (a worker and a
    shutdown drain, say) cannot double-close a span.  ``duration`` is
    measured on the monotonic clock; ``start`` is a wall-clock stamp for
    display only.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "start",
        "duration",
        "status",
        "attrs",
        "children",
        "_t0",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: "str | None" = None,
        parent_id: "str | None" = None,
        context: "SpanContext | None" = None,
        attrs: "dict | None" = None,
    ):
        if context is not None:
            trace_id, parent_id = context.trace_id, context.span_id
        self.name = name
        self.trace_id = trace_id or new_trace_id()
        self.span_id = new_span_id()
        self.parent_id = parent_id
        self.start = time.time()
        self.duration: "float | None" = None
        self.status = "ok"
        self.attrs = dict(attrs) if attrs else {}
        self.children: list[Span] = []
        self._t0 = time.perf_counter()
        self._lock = threading.Lock()

    # -- building the tree -------------------------------------------------------------

    def child(self, name: str, attrs: "dict | None" = None) -> "Span":
        """Start a child span (same trace, parented here); thread-safe."""
        node = Span(
            name, trace_id=self.trace_id, parent_id=self.span_id, attrs=attrs
        )
        with self._lock:
            self.children.append(node)
        return node

    def event(self, name: str, **attrs) -> "Span":
        """A zero-ish-duration child marking a point event (cache hit, expiry)."""
        node = self.child(name, attrs=attrs or None)
        node.finish()
        return node

    def add(self, subtree: "Span | dict") -> "Span":
        """Graft an already-built subtree (a :class:`Span` or its dict form).

        This is the join point for trees built on the far side of a pickle or
        RPC boundary: the remote side serialises its spans, the local side
        grafts them under the span that spawned the remote work.  Grafting a
        live :class:`Span` shares the object — a coalesced follower's request
        span adopts the owner's *actual* execute span, ids and all.
        """
        node = subtree if isinstance(subtree, Span) else Span.from_dict(subtree)
        with self._lock:
            self.children.append(node)
        return node

    def set(self, **attrs) -> "Span":
        """Attach attributes (merged over existing ones)."""
        with self._lock:
            self.attrs.update(attrs)
        return self

    def finish(self, status: "str | None" = None, **attrs) -> float:
        """Close the span (idempotent); returns its duration in seconds."""
        with self._lock:
            if self.duration is None:
                self.duration = time.perf_counter() - self._t0
            if status is not None:
                self.status = status
            if attrs:
                self.attrs.update(attrs)
            return self.duration

    @property
    def finished(self) -> bool:
        return self.duration is not None

    def context(self) -> SpanContext:
        """The continuation context for parenting remote/child work here."""
        return SpanContext(self.trace_id, self.span_id)

    # -- (de)serialisation -------------------------------------------------------------

    def to_dict(self) -> dict:
        """The span tree as a JSON-able dict (unfinished spans report ``None``)."""
        with self._lock:
            children = list(self.children)
            payload = {
                "name": self.name,
                "trace_id": self.trace_id,
                "span_id": self.span_id,
                "parent_id": self.parent_id,
                "start": self.start,
                "duration": self.duration,
                "status": self.status,
                "attrs": dict(self.attrs),
            }
        payload["children"] = [child.to_dict() for child in children]
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "Span":
        """Rebuild a span tree from :meth:`to_dict` output (ids preserved)."""
        node = cls.__new__(cls)
        node.name = payload["name"]
        node.trace_id = payload.get("trace_id") or new_trace_id()
        node.span_id = payload.get("span_id") or new_span_id()
        node.parent_id = payload.get("parent_id")
        node.start = float(payload.get("start") or 0.0)
        node.duration = payload.get("duration")
        node.status = payload.get("status", "ok")
        node.attrs = dict(payload.get("attrs") or {})
        node._t0 = 0.0
        node._lock = threading.Lock()
        node.children = [cls.from_dict(c) for c in payload.get("children") or []]
        return node

    def walk(self):
        """Yield ``(depth, span)`` over the tree, pre-order."""
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            with node._lock:
                children = list(node.children)
            stack.extend((depth + 1, child) for child in reversed(children))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = f"{self.duration:.6f}s" if self.duration is not None else "open"
        return f"Span({self.name!r}, trace={self.trace_id[:8]}, {state})"


# -- thread-local propagation ----------------------------------------------------------

_ACTIVE = threading.local()


def current_span() -> "Span | None":
    """The calling thread's active span, if any."""
    return getattr(_ACTIVE, "span", None)


@contextmanager
def activate(target: "Span | None"):
    """Install ``target`` as the current span for the duration of the block.

    This is the explicit-context seam: a worker thread that received a span
    through a queue payload activates it so that downstream library code
    (:func:`span`, :func:`timed_span`, the JSON log formatter) attaches to
    the right trace.  ``activate(None)`` is a no-op block, which lets call
    sites write one ``with`` statement for both traced and untraced requests.
    """
    if target is None:
        yield None
        return
    previous = getattr(_ACTIVE, "span", None)
    _ACTIVE.span = target
    try:
        yield target
    finally:
        _ACTIVE.span = previous


@contextmanager
def span(name: str, attrs: "dict | None" = None):
    """A child span of the thread's current span, active for the block.

    No current span means no trace is in progress: the block runs untraced
    (yields ``None``) at the cost of one thread-local read.
    """
    parent = current_span()
    if parent is None:
        yield None
        return
    node = parent.child(name, attrs=attrs)
    previous = parent
    _ACTIVE.span = node
    try:
        yield node
    except BaseException:
        node.finish(status="error")
        raise
    else:
        node.finish()
    finally:
        _ACTIVE.span = previous


@contextmanager
def timed_span(name: str, *, items: int = 0, attrs: "dict | None" = None):
    """Time a block into the span histograms, and into a child span if traced.

    The block's duration always lands in :func:`~repro.obs.span_histograms`
    under ``name`` (with ``items`` work units); when a span is active on this
    thread a child span is recorded too.  One ``perf_counter`` pair serves
    both sinks, so the always-on aggregates and per-request trees can never
    disagree about a stage's duration.
    """
    parent = current_span()
    node = parent.child(name, attrs=attrs) if parent is not None else None
    if node is not None:
        _ACTIVE.span = node
    start = time.perf_counter()
    try:
        yield node
    except BaseException:
        if node is not None:
            node.finish(status="error")
        raise
    finally:
        elapsed = time.perf_counter() - start
        span_histograms().observe(name, elapsed, items)
        if node is not None:
            with node._lock:
                if node.duration is None:
                    node.duration = elapsed
                    if items:
                        node.attrs.setdefault("items", items)
            _ACTIVE.span = parent
