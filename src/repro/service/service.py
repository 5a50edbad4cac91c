"""The compile server: QoS lane queues, self-sizing worker lanes, shared cache.

A *service* accepts requests from many concurrent clients, keeps its pools
warm between them, and shares one result cache across everything it
compiles.  It is the one execution engine: ``compile_batch`` runs each sweep
on one (short-lived unless the caller passes its own).
:class:`CompileService` is that subsystem:

* **Scheduling on the caller's thread** — every ``submit()`` builds a
  :class:`CompileRequest` carrying a ``priority`` (higher runs first) and an
  optional ``deadline`` (seconds; a request that cannot start in time is
  expired into a structured :class:`DeadlineExceeded` failure result instead
  of compiling).  Still on the submitting thread, it serves a cache hit
  immediately, coalesces onto identical work already in flight, or pushes
  the request onto its backend lane's priority queue — the only queue a
  request ever waits in.  A slow cache lookup therefore delays only the
  request it is for.
* **Self-sizing per-backend lanes** — each backend gets its own lane: a
  priority queue drained by worker threads, so a slow backend (``best-of``,
  an RL predictor) cannot starve the cheap preset lanes and a high-priority
  request overtakes queued low-priority ones even inside a saturated lane.
  No thread watches the lanes: a submit that leaves more requests queued
  than idle workers starts one more worker (up to ``max_workers``), and a
  worker above ``min_workers`` whose wait for work stays empty for
  ``_Lane.IDLE_RETIRE_S`` retires; a worker at ``min_workers`` blocks with
  no timeout, so an idle service never wakes.  Scale events are surfaced in
  ``stats()["autoscaler"]``.  In-process backends compile on the
  worker thread; backends listed in ``process_backends`` are forwarded to a
  per-lane ``ProcessPoolExecutor``.  A pool broken by a dead worker process
  is replaced and the request retried once, so it costs a retry, not the
  lane.
* **Server-backed shared cache** — pass ``store=CacheServer().store()`` and
  the service cache lives behind a cache server: process-lane workers check
  and fill it from inside their worker processes, and anything else holding
  a client of the same server (another service, an ``LruCache`` built over
  ``server.store()``) shares the entries too.  A cost-aware store
  (:class:`~repro.pipeline.CostAwareStore`) keeps expensive compilations
  resident and evicts cheap-to-recompute entries first.
* **Metrics** — ``stats()`` reports queue depth, in-flight count,
  hit/miss/eviction counters, coalescing, deadline expiries, per-lane worker
  and dispatch counts and scale events.  Request latency, submit to
  resolution, goes to the one timing sink as the ``service.request`` row of
  ``stats()["spans"]``.

The service runs in-process; ``python -m repro.service`` exposes one over a
``multiprocessing`` manager for remote :class:`~repro.service.ServiceClient`\\ s
with identical priority/deadline semantics.
"""

from __future__ import annotations

import collections
import itertools
import pickle
import threading
import queue as queue_module
from concurrent.futures import FIRST_COMPLETED, Future, InvalidStateError, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING

from ..api.batch import CompilationCache, result_cache_key
from ..api.facade import apply_pass_overrides, resolve_backend
from ..api.registry import CompilerBackend
from ..api.result import CompilationResult
from ..devices.library import get_device
from ..obs import Span, activate, as_context, span_histograms
from ..reward.functions import reward_function
from .sharding import ShardedCacheStore
from .store import SharedCacheStore

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuit.circuit import QuantumCircuit
    from ..devices.device import Device
    from ..pipeline.properties import CacheStore

__all__ = [
    "CompileRequest",
    "CompileService",
    "DeadlineExceeded",
    "SERVICE_RPC_METHODS",
    "TicketBook",
]

#: methods a served compile host (CompileService or ForwardingService)
#: exposes to remote clients through the manager
SERVICE_RPC_METHODS = (
    "submit_request",
    "poll_tickets",
    "stats",
    "ping",
    "health",
    "set_draining",
)


class TicketBook:
    """Ticket → future bookkeeping behind the remote RPC surface.

    Remote clients cannot hold a ``Future`` across the manager boundary, so
    ``submit_request`` hands them an opaque ticket instead; this class owns
    the mapping.  Shared by :class:`CompileService` and the forwarding
    front-service so both expose identical RPC semantics.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._futures: dict[str, Future] = {}

    def issue(self, future: Future) -> str:
        ticket = f"req-{next(self._ids)}"
        with self._lock:
            self._futures[ticket] = future
        return ticket

    def poll(self, tickets, timeout: float = 0.5) -> dict:
        """One multiplexed wait over many tickets.

        Blocks up to ``timeout`` seconds for *any* of ``tickets`` to resolve
        and returns ``{ticket: result}`` for every one that did (empty dict
        on timeout).  Returned tickets are collected: a ticket is
        single-use, and polling it again raises ``KeyError``.  This is what
        lets a remote client resolve an arbitrary number of outstanding
        tickets through one waiter thread instead of parking one blocked
        call per ticket.
        """
        with self._lock:
            futures = {}
            unknown = []
            for ticket in tickets:
                future = self._futures.get(ticket)
                if future is None:
                    unknown.append(ticket)
                else:
                    futures[ticket] = future
        if unknown:
            raise KeyError(
                f"unknown or already-collected request tickets {sorted(unknown)!r}"
            )
        if not futures:
            return {}
        futures_wait(
            list(futures.values()), timeout=timeout, return_when=FIRST_COMPLETED
        )
        done = {}
        with self._lock:
            for ticket, future in futures.items():
                if future.done():
                    self._futures.pop(ticket, None)
                    done[ticket] = future.result(timeout=0)
        return done

#: lane-queue sentinel that retires exactly one lane worker
_STOP_WORKER = object()


class DeadlineExceeded(RuntimeError):
    """A request's deadline elapsed before a worker could start compiling it.

    Never raised out of ``Future.result()`` — the service resolves the future
    to a structured failure :class:`~repro.CompilationResult` whose ``error``
    carries this exception's text and whose
    ``metadata["deadline_exceeded"]`` is ``True``, matching how compilation
    failures are captured.
    """


def _failure_result(
    circuit: QuantumCircuit,
    backend_name: str,
    objective: str,
    exc: Exception,
) -> CompilationResult:
    return CompilationResult(
        circuit=circuit,
        device=None,
        reward=0.0,
        reward_name=objective,
        reached_done=False,
        backend=backend_name,
        succeeded=False,
        error=f"{type(exc).__name__}: {exc}",
    )


def _request_failure(request: "CompileRequest", exc: Exception) -> CompilationResult:
    """The structured failure result resolving ``request`` with ``exc``."""
    return _failure_result(request.circuit, request.backend.name, request.objective, exc)


def _compile_task(payload: tuple) -> CompilationResult:
    """Compile one (circuit, backend) pair; exceptions become failure results.

    Run by thread lanes and inside process-lane workers; the payload carries
    everything a worker needs (no access to the parent's caches).
    """
    circuit, backend, device, objective, seed = payload
    try:
        return backend.compile(circuit, device=device, objective=objective, seed=seed)
    except Exception as exc:  # noqa: BLE001 - one failure must not kill the sweep
        return _failure_result(circuit, backend.name, objective, exc)


def _deadline_result(request: "CompileRequest") -> CompilationResult:
    """The structured failure result for an expired request."""
    waited = perf_counter() - request.submitted_at
    result = _failure_result(
        request.circuit,
        request.backend.name,
        request.objective,
        DeadlineExceeded(
            f"deadline of {request.deadline:.3f}s expired after {waited:.3f}s "
            "before a worker picked the request up"
        ),
    )
    result.metadata = {**result.metadata, "deadline_exceeded": True}
    return result


def _process_lane_task(payload: tuple) -> CompilationResult:
    """One compilation inside a process-lane worker, optionally against the shared store.

    Module-level so process lanes can pickle it.  When a shared store client
    rides along, the worker checks it before compiling and fills it after —
    that is what makes results flow *between worker processes* instead of
    only through the parent.  (Thread lanes call ``_compile_task`` directly:
    they share the parent's span histograms and active span.)

    Observability crosses the pickle boundary in one transient metadata key,
    ``metadata["_worker"]``, which the parent strips before the result can
    reach a cache or a caller:

    * ``"histograms"`` — the worker resets its own (per-process) span
      histograms at task start and ships their snapshot, the exact per-task
      delta (each worker process runs one task at a time), for the parent to
      merge;
    * ``"spans"`` — with a non-``None`` ``trace_ctx`` the worker collects its
      pipeline spans under a shadow container and ships them as plain dicts
      for the parent to graft under the real ``lane.execute`` span.

    The key is attached *after* any shared-store ``put``, so the
    cross-process cache never stores per-request observability payloads.
    """
    circuit, backend, device, objective, seed, key, store, trace_ctx = payload
    histograms = span_histograms()
    histograms.reset()
    if store is not None:
        try:
            hit = store.get(key)
        except Exception:  # pragma: no cover - cache server gone; compile anyway
            hit = None
            store = None
        if hit is not None:
            result = hit.with_objective(objective)
            result.metadata = {**result.metadata, "cached": True}
            result.metadata.pop("trace", None)
            return result
    container = (
        Span("lane.worker", context=as_context(trace_ctx)) if trace_ctx is not None else None
    )
    with activate(container):
        result = _compile_task((circuit, backend, device, objective, seed))
    if store is not None and result.succeeded:
        try:
            store.put(key, result, result.wall_time or None)
        except Exception:  # pragma: no cover - cache server gone; result still good
            # A dead cache server must not fail a compilation that succeeded:
            # the fill is best-effort, exactly like the parent-side cache put.
            pass
    worker = {"histograms": histograms.snapshot()}
    if container is not None:
        worker["spans"] = [child.to_dict() for child in container.children]
    result.metadata = {**result.metadata, "_worker": worker}
    return result


@dataclass
class CompileRequest:
    """One queued compilation request (internal bookkeeping of the service)."""

    circuit: "QuantumCircuit"
    backend: CompilerBackend
    device: "Device | None"
    objective: str
    seed: int
    #: higher priorities are scheduled first; ties run in submission order
    priority: int = 0
    #: seconds the request may wait before it is expired (``None`` = forever)
    deadline: float | None = None
    future: Future = field(default_factory=Future)
    submitted_at: float = 0.0
    #: absolute ``perf_counter`` time at which the request expires
    deadline_at: float | None = None
    #: service-wide submission sequence number (priority-queue tie-breaker)
    seq: int = 0
    #: the priority the request is queued under (raised when a higher-priority
    #: request coalesces onto it)
    effective_priority: int = 0
    #: set once a worker has claimed the request (guards boost duplicates)
    started: bool = False
    #: the lane the request was dispatched to (set by ``_dispatch``)
    lane: "object | None" = None
    #: the request's ``service.request`` span (``None`` when untraced)
    span: "Span | None" = None
    #: open ``queue.wait`` child span, finished when a worker claims the
    #: request (or when the request resolves without one — cache hit, expiry)
    queue_span: "Span | None" = None
    #: the ``lane.execute`` child span; coalesced followers graft the owner's
    #: instance into their own trees, sharing its span id
    execute_span: "Span | None" = None

    def key(self) -> tuple:
        """The result-cache key (:func:`~repro.api.batch.result_cache_key`)."""
        device_name = self.device.name if self.device is not None else None
        return result_cache_key(self.circuit, self.backend, device_name, self.seed)

    def expired(self) -> bool:
        return self.deadline_at is not None and perf_counter() >= self.deadline_at

    def sort_key(self, seq: int | None = None) -> tuple:
        return (-self.effective_priority, self.seq if seq is None else seq)


class _Lane:
    """One backend's worker lane: a priority queue drained by its own threads.

    Workers pull ``(request, key)`` entries in priority order and compile
    in-thread (``kind="thread"``) or forward the payload to the shared
    ``ProcessPoolExecutor`` (``kind="process"``).  The lane sizes itself
    between ``min_workers`` and ``max_workers`` with no supervisor:
    :meth:`enqueue` starts a worker when the backlog exceeds the idle
    workers, and a surplus worker retires once its own wait for work has
    stayed empty for :attr:`IDLE_RETIRE_S`.
    """

    #: seconds a worker above ``min_workers`` waits for work before retiring
    IDLE_RETIRE_S = 0.5

    def __init__(
        self,
        service: "CompileService",
        backend_name: str,
        kind: str,
        min_workers: int,
        max_workers: int,
    ):
        self.service = service
        self.backend_name = backend_name
        self.kind = kind
        self.min_workers = min_workers
        self.max_workers = max_workers
        self.queue: queue_module.PriorityQueue = queue_module.PriorityQueue()
        self.dispatched = 0
        self.busy = 0
        #: queue entries that are stale boost duplicates, not real work —
        #: subtracted from the queue depth so stats() and the growth check
        #: count each request once
        self.phantom = 0
        self._lock = threading.Lock()
        self._alive = 0
        self._stopping = False
        self._threads: list[threading.Thread] = []
        self._stop_seq = itertools.count(1)
        self.pool = (
            ProcessPoolExecutor(max_workers=max_workers) if kind == "process" else None
        )
        self.pool_restarts = 0
        with self._lock:
            for _ in range(min_workers):
                self._spawn()

    # -- worker management -------------------------------------------------------------

    def _spawn(self) -> None:
        """Start one worker (caller holds the lane lock)."""
        self._alive += 1
        # Retired workers leave their Thread objects behind: prune them so
        # grow/retire cycles on a long-lived service don't accumulate forever.
        self._threads = [t for t in self._threads if t.is_alive()]
        thread = threading.Thread(
            target=self._worker_loop,
            name=f"svc-{self.backend_name}-{len(self._threads)}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def _depth(self) -> int:
        """Real pending requests (caller holds the lane lock)."""
        return max(0, self.queue.qsize() - self.phantom)

    def _worker_loop(self) -> None:
        while True:
            with self._lock:
                # A worker at min_workers blocks until work or a stop token
                # arrives; only a surplus worker's wait can time out.
                surplus = self._alive > self.min_workers
            try:
                _key, item = self.queue.get(timeout=self.IDLE_RETIRE_S if surplus else None)
            except queue_module.Empty:
                with self._lock:
                    # enqueue() puts under this lock, so a request that
                    # arrived since the wait ended is seen here and keeps
                    # the worker; one that arrives later sees it gone.
                    if self._alive > self.min_workers and self._depth() == 0:
                        self.service._note_scale(
                            self, "scale_down", self._alive, self._alive - 1, 0
                        )
                        self._alive -= 1
                        return
                continue
            if item is _STOP_WORKER:
                with self._lock:
                    self._alive -= 1
                return
            request, key = item
            with self._lock:
                self.busy += 1
            try:
                self.service._execute(self, request, key)
            except Exception as exc:  # noqa: BLE001 - a worker must never die
                # Backstop: _execute resolves every expected failure itself;
                # anything escaping here would otherwise kill the worker with
                # _alive still counting it and the future unresolved.
                if not request.future.done():
                    self.service._finish(
                        request,
                        _failure_result(
                            request.circuit, request.backend.name, request.objective, exc
                        ),
                    )
            finally:
                with self._lock:
                    self.busy -= 1

    # -- dispatch / teardown -----------------------------------------------------------

    def replace_pool(self, broken: ProcessPoolExecutor) -> None:
        """Swap a fresh process pool in for ``broken``.

        Every worker that hit the broken pool calls this; only the first one
        (while ``broken`` is still the lane's pool) replaces it.
        """
        with self._lock:
            # A stopping lane gets no new pool (stop() would never shut it
            # down); the retry then fails on the broken one.
            if self._stopping or self.pool is not broken:
                return
            self.pool = ProcessPoolExecutor(max_workers=self.max_workers)
            self.pool_restarts += 1
        broken.shutdown(wait=False)

    def enqueue(self, request: CompileRequest, key: tuple, *, seq: int | None = None) -> None:
        """Queue one entry, growing the lane by a worker if the backlog needs it."""
        # The put shares the lane lock with stop()'s flag flip, so an entry
        # is either visible to drain_pending() or refused — never orphaned.
        with self._lock:
            if self._stopping:
                raise RuntimeError(f"lane {self.backend_name!r} is stopped")
            self.queue.put((request.sort_key(seq), (request, key)))
            depth = self._depth()
            if depth > self._alive - self.busy and self._alive < self.max_workers:
                self.service._note_scale(
                    self, "scale_up", self._alive, self._alive + 1, depth
                )
                self._spawn()

    def stop(self, *, wait: bool) -> None:
        """Retire every worker (stop tokens jump the queue) and close the pool."""
        with self._lock:
            self._stopping = True
            alive = self._alive
            pool = self.pool
        for _ in range(alive):
            # Highest possible priority: workers stop before touching any
            # request still queued behind the tokens.
            self.queue.put(((float("-inf"), -next(self._stop_seq)), _STOP_WORKER))
        for thread in self._threads:
            thread.join(timeout=10)
        if pool is not None:
            pool.shutdown(wait=wait)

    def drain_pending(self) -> list[tuple[CompileRequest, tuple]]:
        """Pop every request the retired workers left behind (stale boosts excluded)."""
        pending: list[tuple[CompileRequest, tuple]] = []
        while True:
            try:
                _key, item = self.queue.get_nowait()
            except queue_module.Empty:
                return pending
            if item is _STOP_WORKER:
                continue
            request, key = item
            if not request.started and not request.future.done():
                pending.append((request, key))

    def stats(self) -> dict:
        with self._lock:
            alive, busy, depth = self._alive, self.busy, self._depth()
        return {
            "kind": self.kind,
            "min_workers": self.min_workers,
            "max_workers": self.max_workers,
            "workers": alive,
            "busy": busy,
            "queue_depth": depth,
            "dispatched": self.dispatched,
            "pool_restarts": self.pool_restarts,
        }


class CompileService:
    """Concurrent compile server with QoS scheduling and a shared cache.

    Parameters
    ----------
    store:
        Optional :class:`~repro.pipeline.CacheStore` backing the service
        cache — pass :meth:`repro.service.CacheServer.store` to share entries
        (and counters) across process boundaries, or a
        :class:`~repro.pipeline.CostAwareStore` to evict cheap-to-recompute
        results first.  Defaults to a private in-process store.
    process_backends:
        Backend names whose lane forwards work to a ``ProcessPoolExecutor``
        (the backend must be picklable; validated when the lane is created).
        Everything else compiles on the lane's worker threads.
    min_workers / max_workers:
        Per-lane worker bounds.  Lanes start at ``min_workers``; a submit
        that finds more requests queued than idle workers grows its lane by
        one toward ``max_workers``, and a surplus worker left idle for
        ``_Lane.IDLE_RETIRE_S`` retires.  ``min_workers=max_workers`` pins
        every lane at a fixed size.  ``lane_workers`` overrides the *upper*
        bound per backend name.
    cache_size:
        Capacity of the service cache when ``store`` is not given.
    """

    #: bounded history of lane scale events surfaced in ``stats()``
    MAX_SCALE_EVENTS = 256

    def __init__(
        self,
        *,
        store: "CacheStore | None" = None,
        process_backends: tuple = (),
        max_workers: int = 2,
        min_workers: int = 1,
        lane_workers: dict | None = None,
        cache_size: int = 4096,
        name: str = "compile-service",
    ):
        self.name = name
        self.cache = CompilationCache(cache_size, store=store)
        # Stores that survive the pickle boundary ride along to process-lane
        # workers so they check/fill the shared entries from inside the pool.
        self._shared_store = (
            store if isinstance(store, (SharedCacheStore, ShardedCacheStore)) else None
        )
        self._process_backends = frozenset(process_backends)
        self._max_workers = max(1, max_workers)
        self._min_workers = max(1, min(min_workers, self._max_workers))
        self._lane_workers = dict(lane_workers or {})
        self._lanes: dict[str, _Lane] = {}
        self._inflight: dict[tuple, tuple[CompileRequest, list[CompileRequest]]] = {}
        self._lock = threading.Lock()
        self._lane_build_lock = threading.Lock()
        self._idle = threading.Condition(self._lock)
        self._unfinished = 0
        self._closed = False
        self._metrics = {
            "submitted": 0,
            "completed": 0,
            "failed": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "deadline_exceeded": 0,
        }
        #: set by shutdown() once it has taken its list of lanes to stop:
        #: _lane_for() registers no lane after it
        self._lanes_closed = False
        #: scale counters and the bounded event history, written by lanes
        #: while they hold their own lock (a leaf lock: nothing is acquired
        #: while it is held)
        self._scale_lock = threading.Lock()
        self._scale_counts = {"scale_up": 0, "scale_down": 0}
        self._scale_events: collections.deque = collections.deque(
            maxlen=self.MAX_SCALE_EVENTS
        )
        #: copy-on-write tuple, so a lane worker iterates it without the lock
        self._observers: tuple = ()
        self._draining = False
        self._seq = itertools.count()
        self._ticket_book = TicketBook()

    # -- client API ------------------------------------------------------------------

    def submit(
        self,
        circuit: "QuantumCircuit",
        backend: "str | CompilerBackend" = "qiskit-o3",
        *,
        device: "Device | str | None" = None,
        objective: str = "fidelity",
        seed: int = 0,
        priority: int = 0,
        deadline: float | None = None,
        pass_overrides: dict | None = None,
        trace: "Span | object | dict | None" = None,
    ) -> Future:
        """Schedule one compilation; the returned future resolves to its result.

        ``trace`` continues an existing trace: a :class:`~repro.obs.Span`,
        :class:`~repro.obs.SpanContext`, or ``{"trace_id", "span_id"}`` dict
        parents this request's ``service.request`` span there; the default
        ``None`` picks up the calling thread's active span, if any, so code
        already running under a span gets propagation for free.  With no
        context at all the request runs untraced (zero overhead).  The
        finished span tree — ``queue.wait``, ``lane.execute``, per-stage
        pipeline spans — comes back in ``result.metadata["trace"]``.

        ``priority`` (higher first) decides the order requests leave the
        queues; ``deadline`` (seconds from now) expires the request into a
        :class:`DeadlineExceeded` failure result if no worker could start it
        in time — ``deadline=0`` never reaches a worker at all.

        ``pass_overrides`` swaps stage slots of a preset backend's schedule by
        registered pass name (``{"routing": "tket-routing"}``); the derived
        backend carries its own cache token, so overridden results never
        alias base results in the shared cache or the coalescing map.

        Validation (unknown backend, unknown objective, negative deadline,
        bad pass override) raises here, before the request is accepted.
        Scheduling then runs on this thread too: the cache lookup, the
        expiry check, coalescing and the push onto the backend lane's
        priority queue.  Once accepted, ``submit`` never raises: the
        future's result is always a :class:`~repro.CompilationResult`, and
        compilation failures, deadline expiries and scheduling errors are
        captured as ``succeeded=False`` results, which is what
        ``compile_batch`` collects.
        """
        if deadline is not None:
            deadline = float(deadline)
            if deadline < 0:
                raise ValueError(f"deadline must be >= 0 seconds, got {deadline}")
        priority = int(priority)
        resolved = apply_pass_overrides(resolve_backend(backend), pass_overrides)
        reward_function(objective)  # fail fast on unknown objectives
        target = get_device(device) if isinstance(device, str) else device
        ctx = as_context(trace)
        now = perf_counter()
        request = CompileRequest(
            circuit=circuit,
            backend=resolved,
            device=target,
            objective=objective,
            seed=seed,
            priority=priority,
            deadline=deadline,
            effective_priority=priority,
            submitted_at=now,
            deadline_at=None if deadline is None else now + deadline,
            seq=next(self._seq),
        )
        if ctx is not None:
            request.span = Span(
                "service.request",
                context=ctx,
                attrs={
                    "backend": resolved.name,
                    "objective": objective,
                    "priority": priority,
                },
            )
            # Queue wait starts now; a lane worker closes it when it claims
            # the request (cache hits and expiries close it at _finish).
            request.queue_span = request.span.child("queue.wait")
        # Counted as unfinished in the same critical section as the closed
        # check, so shutdown(drain=True) waits for a request accepted here.
        with self._lock:
            if self._closed:
                raise RuntimeError(f"{self.name} is shut down")
            self._unfinished += 1
            self._metrics["submitted"] += 1
        try:
            self._schedule(request)
        except Exception as exc:  # noqa: BLE001 - an accepted request always resolves
            self._finish(request, _request_failure(request, exc))
        return request.future

    def submit_many(
        self,
        circuits,
        backend: "str | CompilerBackend" = "qiskit-o3",
        *,
        device: "Device | str | None" = None,
        objective: str = "fidelity",
        seed: int = 0,
        priority: int = 0,
        deadline: float | None = None,
        pass_overrides: dict | None = None,
        trace: "Span | object | dict | None" = None,
    ) -> list[Future]:
        """Submit one request per circuit; futures come back in input order.

        ``trace`` (or the caller's ambient span) parents every request of the
        batch, so one trace tree shows the whole sweep fanning out.
        """
        # Resolve the (possibly overridden) backend once for the whole batch;
        # likewise pin the trace context so every request shares one parent
        # even if the ambient span changes while the loop runs.
        resolved = apply_pass_overrides(resolve_backend(backend), pass_overrides)
        ctx = as_context(trace)
        return [
            self.submit(
                circuit,
                resolved,
                device=device,
                objective=objective,
                seed=seed,
                priority=priority,
                deadline=deadline,
                trace=ctx,
            )
            for circuit in circuits
        ]

    def add_observer(self, observer) -> None:
        """Subscribe to request starts.

        ``observer(request)`` is called when a lane worker claims a request
        and is about to compile it.  Cache hits, expiries and coalesced
        followers never start; the request's future reports how every
        request ends.

        Callbacks run on lane worker threads: they must be fast and must not
        call back into the service.  Exceptions are swallowed — a broken
        observer must not kill a worker.  This is the progress seam the HTTP
        gateway's server-sent-events endpoint is built on.
        """
        with self._lock:
            self._observers = (*self._observers, observer)

    def remove_observer(self, observer) -> None:
        """Unsubscribe a previously added observer (no-op if absent)."""
        with self._lock:
            # Equality, not identity: a bound method is a new object on
            # every attribute access, and the gateway passes one.
            observers = list(self._observers)
            try:
                observers.remove(observer)
            except ValueError:
                return
            self._observers = tuple(observers)

    def drain(self, timeout: float | None = None) -> bool:
        """Block until every submitted request has resolved.

        Returns ``False`` if ``timeout`` elapsed with work still pending.
        """
        deadline = None if timeout is None else perf_counter() + timeout
        with self._idle:
            while self._unfinished:
                remaining = None if deadline is None else deadline - perf_counter()
                if remaining is not None and remaining <= 0:
                    return False
                self._idle.wait(timeout=remaining)
        return True

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Stop the service: refuse new work, optionally finish pending work.

        With ``drain=True`` (the default) every already-accepted request is
        completed before the lanes are torn down; with ``drain=False``
        pending futures are failed as the lanes shut down.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if drain:
            self.drain(timeout=timeout)
        with self._lock:
            # _lane_for() checks the flag under this lock, so no lane can be
            # registered behind this list and never stopped.
            self._lanes_closed = True
            lanes = list(self._lanes.values())
        for lane in lanes:
            lane.stop(wait=drain)
        # Fail any request that was still pending (drain=False teardown).
        # A submit still scheduling now finds its lane stopped, or no lane,
        # and resolves its own request.
        with self._lock:
            pending = [owner for owner, _ in self._inflight.values()]
            pending += [req for _, reqs in self._inflight.values() for req in reqs]
            self._inflight.clear()
        for lane in lanes:
            pending.extend(request for request, _key in lane.drain_pending())
        for request in pending:
            if not request.future.done():
                self._finish(
                    request,
                    _failure_result(
                        request.circuit,
                        request.backend.name,
                        request.objective,
                        RuntimeError("service shut down before request completed"),
                    ),
                )

    def __enter__(self) -> "CompileService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    # -- RPC surface (used by remote ServiceClients via the manager) -------------------

    def submit_request(
        self,
        circuit: "QuantumCircuit",
        backend: str = "qiskit-o3",
        device: str | None = None,
        objective: str = "fidelity",
        seed: int = 0,
        priority: int = 0,
        deadline: float | None = None,
        pass_overrides: dict | None = None,
        trace: dict | None = None,
    ) -> str:
        """``submit()`` for remote callers: returns a ticket id instead of a future.

        Carries the full QoS surface — remote clients get identical
        priority/deadline and ``pass_overrides`` semantics to in-process
        ones.  ``trace`` is the wire form of a span context (``{"trace_id",
        "span_id"}`` dict): the server parents its ``service.request`` span
        there, exactly as the in-process path does, so a trace crossing the
        RPC boundary produces the same tree shape as one that never left the
        process.
        """
        future = self.submit(
            circuit,
            backend,
            device=device,
            objective=objective,
            seed=seed,
            priority=priority,
            deadline=deadline,
            pass_overrides=pass_overrides,
            trace=trace,
        )
        return self._ticket_book.issue(future)

    def poll_tickets(self, tickets, timeout: float = 0.5) -> dict:
        """Resolve any finished tickets among ``tickets`` in one bounded wait.

        The multiplexing half of the RPC protocol: a remote client keeps one
        waiter thread that polls all its outstanding tickets here, so a
        completed high-priority request resolves immediately no matter how
        many slower tickets were submitted before it.
        """
        return self._ticket_book.poll(tickets, timeout)

    def ping(self) -> str:
        """Liveness probe for remote clients."""
        return self.name

    @property
    def draining(self) -> bool:
        """True once the service has been marked as draining for a restart."""
        return self._draining

    def set_draining(self, draining: bool = True) -> None:
        """Mark (or unmark) the service as draining.

        Purely advisory: the flag flips :meth:`health` to ``"draining"`` so
        load balancers and the HTTP gateway take the host out of rotation,
        but already-accepted work keeps running and ``submit`` still accepts
        requests (the layer in front is responsible for refusing new work).
        """
        self._draining = bool(draining)

    def health(self) -> dict:
        """Readiness snapshot for health endpoints and rolling restarts.

        ``status`` is ``"ok"`` while serving, ``"draining"`` once
        :meth:`set_draining` has been called, and ``"shutdown"`` after
        :meth:`shutdown`; ``ready`` collapses that to one load-balancer
        boolean.  Cheaper than :meth:`stats` — safe to poll aggressively.
        """
        with self._lock:
            closed = self._closed
            unfinished = self._unfinished
            in_flight = len(self._inflight)
        if closed:
            status = "shutdown"
        elif self._draining:
            status = "draining"
        else:
            status = "ok"
        return {
            "name": self.name,
            "status": status,
            "ready": status == "ok",
            "unfinished": unfinished,
            "in_flight": in_flight,
        }

    # -- metrics ---------------------------------------------------------------------

    def stats(self) -> dict:
        """Queue/cache/lane/scale counters and the span histograms, for monitoring."""
        with self._lock:
            metrics = dict(self._metrics)
            in_flight = len(self._inflight)
            lanes = {name: lane.stats() for name, lane in self._lanes.items()}
            unfinished = self._unfinished
        with self._scale_lock:
            scale_counts = dict(self._scale_counts)
            scale_events = list(self._scale_events)
        queue_depth = sum(lane["queue_depth"] for lane in lanes.values())
        try:
            cache_stats = self.cache.stats()
        except Exception as exc:  # noqa: BLE001 - a dead cache server must not kill stats
            cache_stats = {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "name": self.name,
            "submitted": metrics["submitted"],
            "completed": metrics["completed"],
            "failed": metrics["failed"],
            "cache_hits": metrics["cache_hits"],
            "coalesced": metrics["coalesced"],
            "deadline_exceeded": metrics["deadline_exceeded"],
            "queue_depth": queue_depth,
            "in_flight": in_flight,
            "unfinished": unfinished,
            "lanes": lanes,
            "autoscaler": {
                "scale_ups": scale_counts["scale_up"],
                "scale_downs": scale_counts["scale_down"],
                "events": scale_events,
            },
            "cache": cache_stats,
            "shared_cache": self._shared_store is not None,
            "spans": span_histograms().snapshot(),
        }

    # -- scheduling (on the submitting thread) ----------------------------------------

    def _schedule(self, request: CompileRequest) -> None:
        # The cache is consulted before the deadline: serving a hit occupies
        # no worker, so even an already-expired request gets a free answer —
        # that is what makes ``deadline=0`` the cache-or-nothing idiom.
        key = request.key()
        try:
            hit = self.cache.get(key)
        except Exception:  # noqa: BLE001 - a dead cache server degrades to a miss
            hit = None
        if hit is not None:
            result = hit.with_objective(request.objective)
            result.metadata = {**result.metadata, "cached": True}
            # A cached result must answer with *this* request's trace, never
            # a stale tree the stored entry might somehow carry.
            result.metadata.pop("trace", None)
            if request.span is not None:
                request.span.event("cache.hit")
            with self._lock:
                self._metrics["cache_hits"] += 1
            self._finish(request, result)
            return
        if request.expired():
            # Expired with nothing cached (deadline=0 on a cold key lands
            # here): the request never reaches a lane, let alone a worker.
            self._expire(request)
            return
        with self._lock:
            inflight = self._inflight.get(key)
            if inflight is not None:
                # Identical work is already running: ride on its result
                # instead of occupying a second worker.  A higher-priority
                # follower must not wait at the owner's (lower) priority, so
                # the owner is re-queued at the follower's priority — the
                # ``started`` flag makes the original entry a no-op.
                owner, followers = inflight
                followers.append(request)
                self._metrics["coalesced"] += 1
                if request.span is not None:
                    # The follower's own request span survives; its execute
                    # time will be the owner's shared lane.execute span,
                    # grafted at completion.
                    request.span.set(coalesced=True)
                if request.priority > owner.effective_priority and not owner.started:
                    # An owner still on its way to the lane enqueues at the
                    # raised priority itself; a queued one gets a boosted copy.
                    owner.effective_priority = request.priority
                    lane = owner.lane
                    if lane is not None:
                        # The original entry becomes a stale duplicate once the
                        # boosted copy (or it) is claimed: count one phantom.
                        with lane._lock:
                            lane.phantom += 1
                        lane.enqueue(owner, key, seq=next(self._seq))
                return
            self._inflight[key] = (request, [])
        try:
            self._dispatch(request, key)
        except Exception as exc:
            # Lane creation / submission failed.  Other submitting threads
            # may have coalesced onto the entry since it was registered:
            # they share the failure.  submit() resolves the owner.
            for follower in self._release_inflight(request, key):
                self._finish(follower, _request_failure(follower, exc))
            raise

    def _lane_for(self, backend: CompilerBackend) -> _Lane:
        # Lanes are created on submitting threads *and* (for coalesced
        # retries) on lane worker threads, while stats() iterates the lane
        # map — every touch of self._lanes stays under the lock.
        with self._lock:
            lane = self._lanes.get(backend.name)
        if lane is not None:
            return lane
        kind = "process" if backend.name in self._process_backends else "thread"
        if kind == "process":
            try:
                pickle.dumps(backend)
            except Exception as exc:
                raise ValueError(
                    f"backend {backend.name!r} cannot be pickled for its "
                    f"process lane ({exc}); remove it from process_backends"
                ) from exc
        # One builder at a time, so concurrent first submits for a cold
        # backend share one lane instead of each starting (and then
        # stopping) its own workers and pool.
        with self._lane_build_lock:
            with self._lock:
                lane = self._lanes.get(backend.name)
            if lane is not None:
                return lane
            max_workers = self._lane_workers.get(backend.name, self._max_workers)
            min_workers = min(self._min_workers, max_workers)
            lane = _Lane(self, backend.name, kind, min_workers, max_workers)
            with self._lock:
                # After shutdown has taken its list of lanes to stop,
                # register none.
                registered = not self._lanes_closed
                if registered:
                    self._lanes[backend.name] = lane
        if not registered:
            lane.stop(wait=False)
            raise RuntimeError(f"{self.name} is shut down")
        return lane

    def _dispatch(self, request: CompileRequest, key: tuple) -> None:
        lane = self._lane_for(request.backend)
        request.lane = lane
        lane.enqueue(request, key)
        with self._lock:
            lane.dispatched += 1

    # -- lane-worker side --------------------------------------------------------------

    def _execute(self, lane: _Lane, request: CompileRequest, key: tuple) -> None:
        """Run one claimed request on a lane worker thread."""
        with self._lock:
            stale = request.started or request.future.done()
            if not stale:
                request.started = True
        if stale:
            # A stale duplicate left behind by a priority boost: drop it and
            # settle the phantom count it was responsible for.
            with lane._lock:
                lane.phantom = max(0, lane.phantom - 1)
            return
        if request.expired():
            self._expire(request, key)
            return
        if request.queue_span is not None:
            # The request just left the queues: close the wait span here so
            # queue time and execute time partition the latency cleanly.
            request.queue_span.finish()
        execute_span = None
        if request.span is not None:
            execute_span = request.span.child(
                "lane.execute", attrs={"lane": lane.backend_name, "kind": lane.kind}
            )
            request.execute_span = execute_span
        for observer in self._observers:
            try:
                observer(request)
            except Exception:  # noqa: BLE001 - observers must never hurt the service
                pass
        task = (
            request.circuit,
            request.backend,
            request.device,
            request.objective,
            request.seed,
        )
        try:
            if lane.pool is not None:
                # Process lanes carry the trace as a picklable context; the
                # worker ships its histogram delta and spans home in the
                # transient ``_worker`` key, stripped here before the result
                # can reach the parent cache or any caller.
                trace_ctx = execute_span.context() if execute_span is not None else None
                payload = (*task, key, self._shared_store, trace_ctx)
                pool = lane.pool
                try:
                    result = pool.submit(_process_lane_task, payload).result()
                except BrokenProcessPool:
                    # A worker process died (OOM kill, segfault): the pool is
                    # unusable for good.  Replace it and retry this request once.
                    lane.replace_pool(pool)
                    result = lane.pool.submit(_process_lane_task, payload).result()
                worker = result.metadata.pop("_worker", None)
                if worker:
                    span_histograms().merge(worker["histograms"])
                    # "spans" is present only when a trace_ctx was sent.
                    for subtree in worker.get("spans", ()):
                        execute_span.add(subtree)
            else:
                with activate(execute_span):
                    result = _compile_task(task)
        except Exception as exc:  # noqa: BLE001 - pool-level failure (e.g. broken pool)
            result = _failure_result(request.circuit, request.backend.name, request.objective, exc)
        if execute_span is not None:
            execute_span.finish(status="ok" if result.succeeded else "error")
        self._complete(request, key, result)

    def _expire(self, request: CompileRequest, key: tuple | None = None) -> None:
        """Resolve an expired request (and re-route any coalesced followers)."""
        if request.span is not None:
            request.span.event("deadline.expired")
        with self._lock:
            self._metrics["deadline_exceeded"] += 1
        followers = self._release_inflight(request, key) if key is not None else []
        self._finish(request, _deadline_result(request))
        # Followers carried their own deadlines: each gets an independent
        # attempt (or its own expiry) — an expired owner must not take its
        # coalesced riders down with it.
        for follower in followers:
            self._redispatch(follower, key)

    def _release_inflight(self, request: CompileRequest, key: tuple) -> list[CompileRequest]:
        """Pop ``key``'s in-flight entry — only if ``request`` still owns it.

        A redispatched follower finishes with no entry of its own, and a
        *newer* owner may have registered the same key meanwhile: popping
        unconditionally would orphan that owner's followers and break
        coalescing for it.
        """
        with self._lock:
            entry = self._inflight.get(key)
            if entry is not None and entry[0] is request:
                del self._inflight[key]
                return entry[1]
        return []

    def _complete(self, request: CompileRequest, key: tuple, result: CompilationResult) -> None:
        if result.succeeded:
            try:
                self.cache.put(key, result, result.wall_time or None)
            except Exception:  # noqa: BLE001 - cache is best-effort; the result is not
                pass
        followers = self._release_inflight(request, key)
        self._finish(request, result)
        for follower in followers:
            if result.succeeded:
                shared = result.with_objective(follower.objective)
                shared.metadata = {**shared.metadata, "cached": True}
                if follower.span is not None and request.execute_span is not None:
                    # Coalesced requests share the owner's lane.execute span
                    # (same span id in every tree) while keeping their own
                    # request and queue.wait spans — the trace shows both
                    # *that* the work ran once and *who* waited on it.
                    follower.span.add(request.execute_span)
                self._finish(follower, shared)
            else:
                # The owner failed (failures are never cached or shared):
                # give each coalesced request its own attempt.  No in-flight
                # entry is registered, so the retries run independently.
                self._redispatch(follower, key)

    def _redispatch(self, follower: CompileRequest, key: tuple | None) -> None:
        """Re-route a coalesced follower after its owner failed or expired.

        Runs on lane worker threads, where an escaping exception would kill
        the worker and leave the follower's future unresolved — dispatch
        failures become failure results here instead.
        """
        if follower.expired():
            with self._lock:
                self._metrics["deadline_exceeded"] += 1
            self._finish(follower, _deadline_result(follower))
            return
        try:
            self._dispatch(follower, key if key is not None else follower.key())
        except Exception as exc:  # noqa: BLE001 - must resolve the future
            self._finish(
                follower,
                _failure_result(
                    follower.circuit, follower.backend.name, follower.objective, exc
                ),
            )

    def _finish(self, request: CompileRequest, result: CompilationResult) -> None:
        if request.span is not None:
            if request.queue_span is not None:
                # Still open on paths that never reached a worker (cache hit,
                # expiry, shutdown); finish() is idempotent for the rest.
                request.queue_span.finish()
            request.span.finish(status="ok" if result.succeeded else "error")
            # Annotate a copy: ``result`` may be (or later become) the object
            # held by the result cache, and a cached entry must never carry
            # one request's trace into another request's answer.
            result = replace(
                result, metadata={**result.metadata, "trace": request.span.to_dict()}
            )
        try:
            request.future.set_result(result)
        except InvalidStateError:  # already failed by a drain=False shutdown
            return
        span_histograms().observe("service.request", perf_counter() - request.submitted_at)
        with self._lock:
            self._metrics["completed"] += 1
            if not result.succeeded:
                self._metrics["failed"] += 1
            self._unfinished -= 1
            self._idle.notify_all()

    # -- lane sizing -----------------------------------------------------------------

    def _note_scale(self, lane: _Lane, event: str, before: int, after: int, depth: int) -> None:
        """Count one lane's ``scale_up``/``scale_down`` and keep it in the history."""
        with self._scale_lock:
            self._scale_counts[event] += 1
            self._scale_events.append(
                {
                    "lane": lane.backend_name,
                    "event": event,
                    "from_workers": before,
                    "to_workers": after,
                    "queue_depth": depth,
                    "time": perf_counter(),
                }
            )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "closed" if self._closed else "open"
        return f"CompileService({self.name!r}, lanes={sorted(self._lanes)}, {state})"
