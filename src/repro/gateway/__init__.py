"""HTTP/JSON gateway: the multi-tenant public surface over the compile service.

Everything before this package speaks Python (``repro.compile``) or the
pickle RPC protocol (``repro.service``).  The gateway turns one
:class:`~repro.service.CompileService` into something any HTTP client can
use — QASM in, compiled QASM + metrics out — with production tenancy
built in:

* **Endpoints** — ``POST /v1/compile`` (sync or ``mode=async``),
  ``GET /v1/jobs/<id>`` / ``/result`` / ``/events`` (server-sent progress) /
  ``/trace`` (the request's span tree), ``GET /v1/stats``, ``GET /metrics``
  (Prometheus), ``GET /dashboard`` (self-contained live ops page),
  ``GET /healthz``, ``POST /admin/drain``.
* **Observability** — every request carries one trace id end to end
  (``X-Repro-Trace-Id`` honoured inbound, echoed on every response), spans
  from the gateway through the service's queues down to individual pipeline
  stages, a bounded slow-request log, latency histograms, and optional
  trace-stamped JSON logging (``--json-logs``).
* **Tenancy** — API-key auth from a JSON keyfile, per-tenant token-bucket
  rate limits (429 + ``Retry-After``), and weighted fair-share scheduling
  mapped onto the service's ``priority=`` metadata so one hot tenant cannot
  starve the rest.
* **Zero dependencies** — stdlib ``http.server`` / ``http.client`` only;
  runs anywhere the package runs.
* **Keep-alive** — the server speaks HTTP/1.1 keep-alive with
  ``TCP_NODELAY`` and closes idle connections after
  ``KEEPALIVE_IDLE_SECONDS``; :class:`GatewayClient` keeps one connection
  per calling thread (``close()`` or ``with`` releases them) and resends a
  request once only when a reused connection fails before any response
  byte.

Quickstart::

    from repro.service import CompileService
    from repro.gateway import GatewayClient, GatewayServer, Tenant

    with CompileService() as service:
        with GatewayServer(service, tenants=[Tenant("alice", "alice-key")]) as gw:
            with GatewayClient(gw.url, api_key="alice-key") as client:
                result = client.compile(circuit, backend="qiskit-o3")

Or standalone: ``python -m repro.gateway --port 8080 --keys tenants.json``.
"""

from __future__ import annotations

from .auth import AuthError, RateLimited, Tenant, TenantRegistry, TokenBucket
from .client import GatewayClient, GatewayError
from .fairshare import FairShareScheduler
from .jobs import Job, JobStore
from .metrics import LatencyWindow, StatsSampler, render_prometheus
from .server import GatewayServer

__all__ = [
    "AuthError",
    "FairShareScheduler",
    "GatewayClient",
    "GatewayError",
    "GatewayServer",
    "Job",
    "JobStore",
    "LatencyWindow",
    "RateLimited",
    "StatsSampler",
    "Tenant",
    "TenantRegistry",
    "TokenBucket",
    "render_prometheus",
]
