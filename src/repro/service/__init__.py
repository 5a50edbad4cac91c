"""Compile-service subsystem: serve many clients against one shared cache.

This package turns the one-shot compilation facility (``repro.compile``)
into a long-lived server, and is the execution engine ``repro.compile_batch``
runs every sweep on:

* :class:`CompileService` — QoS scheduling on the submitting thread
  (per-request ``priority`` and ``deadline``; expired requests resolve to
  structured :class:`DeadlineExceeded` failure results without occupying a
  worker), per-backend priority lanes that grow on submit and shed idle
  workers on their own (thread lanes for in-process backends, process lanes
  for the ``process_backends``), request coalescing, and
  hit/miss/queue-depth/scale counters plus the span histograms
  (request latency is the ``service.request`` row) via
  :meth:`CompileService.stats`.
* :class:`CacheServer` / :class:`SharedCacheStore` — a cache server process
  plus picklable store clients, so pool workers and other services share
  ``CompilationCache`` / ``TransformCache`` entries across process
  boundaries.
* :class:`ServiceClient` — the caller API (``submit`` → future,
  ``submit_many``, ``result``, ``stats``), identical against an in-process
  service or a ``python -m repro.service`` server.
* The multi-node fabric: :class:`ShardedCacheStore` (consistent-hash
  sharding of the shared cache over several TCP cache servers, with
  bounded-timeout graceful degradation), :class:`ForwardingService` (a
  front-router spilling overload to sibling hosts with priority, deadline
  and trace context intact), and :func:`rolling_restart` (drain → restart →
  re-admit each host in turn with zero lost accepted requests).

Quickstart::

    from repro.service import CompileService, ServiceClient

    with CompileService() as service:
        client = ServiceClient(service)
        futures = client.submit_many(circuits, backend="qiskit-o3")
        results = [f.result() for f in futures]
        print(service.stats()["cache"])
"""

from __future__ import annotations

from .client import ServiceClient, ServiceManager, ServiceTimeout
from .forwarding import ForwardingService
from .rolling import HostRestart, RollingRestartError, rolling_restart
from .service import CompileRequest, CompileService, DeadlineExceeded
from .sharding import ShardedCacheStore, stable_key_hash
from .store import CacheServer, SharedCacheStore

__all__ = [
    "CacheServer",
    "CompileRequest",
    "CompileService",
    "DeadlineExceeded",
    "ForwardingService",
    "HostRestart",
    "RollingRestartError",
    "ServiceClient",
    "ServiceManager",
    "ServiceTimeout",
    "ShardedCacheStore",
    "SharedCacheStore",
    "rolling_restart",
    "stable_key_hash",
]
