"""The HTTP/JSON gateway server (stdlib ``http.server``, no third-party deps).

:class:`GatewayServer` fronts one :class:`~repro.service.CompileService` with
a multi-tenant HTTP surface:

==========================  ========================================================
``POST /v1/compile``        QASM in; compile synchronously or (``mode=async``)
                            return a job id immediately
``GET /v1/jobs/<id>``       job status + lifecycle event log
``GET /v1/jobs/<id>/result``  the compiled QASM + metrics once done
``GET /v1/jobs/<id>/events``  server-sent events (``queued``/``started``/``done``)
``GET /v1/stats``           service + gateway + tenant + fair-share stats,
                            with the sampler's ring-buffer time series
``GET /metrics``            Prometheus text exposition
``GET /healthz``            readiness (200 while serving, 503 while draining)
``POST /admin/drain``       finish queued work, then report draining (rolling
                            restarts; admin tenants only)
==========================  ========================================================

Tenancy is enforced here, not in the service: API keys resolve to
:class:`~repro.gateway.auth.Tenant`\\ s, token buckets answer 429 +
``Retry-After`` when a tenant submits too fast, and the weighted fair-share
scheduler maps tenant weight onto the service's ``priority=`` metadata so a
hot tenant queues behind the share it has already consumed instead of
starving everyone else.
"""

from __future__ import annotations

import json
import socket
import sys
import threading
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import TYPE_CHECKING
from urllib.parse import parse_qs, urlsplit

from ..circuit.qasm import QasmError, from_qasm
from ..obs import SlowRequestLog, Span, get_logger, new_trace_id, valid_trace_id
from .auth import AuthError, RateLimited, Tenant, TenantRegistry
from .dashboard import render_dashboard
from .fairshare import FairShareScheduler
from .jobs import JobStore
from .metrics import LatencyWindow, StatsSampler, render_prometheus

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..service.service import CompileService

__all__ = ["GatewayServer"]

#: request bodies above this are refused with 413 (QASM text is small)
MAX_BODY_BYTES = 2 * 1024 * 1024

#: hard ceiling on one SSE stream's lifetime
MAX_STREAM_SECONDS = 600.0

#: an idle keep-alive connection is closed after this many seconds
KEEPALIVE_IDLE_SECONDS = 30.0


class _HTTPError(Exception):
    """Internal: carries an HTTP status + JSON error payload to the handler."""

    def __init__(self, status: int, error_type: str, message: str, headers=None):
        self.status = status
        self.error_type = error_type
        self.message = message
        self.headers = headers or {}
        super().__init__(message)


class GatewayServer:
    """Multi-tenant HTTP/JSON front-end over one compile service.

    Parameters
    ----------
    service:
        The :class:`~repro.service.CompileService` to front.  The gateway
        does not own it — callers shut the service down after the gateway.
    tenants:
        A :class:`~repro.gateway.auth.TenantRegistry` (or list of
        :class:`~repro.gateway.auth.Tenant`).  ``None`` runs in **open mode**:
        no authentication, every request is the implicit ``anonymous`` admin
        tenant — convenient for development, never for production.
    host / port:
        Bind address; ``port=0`` picks a free port (see :attr:`address`).
    sync_timeout:
        Seconds a synchronous ``POST /v1/compile`` waits before degrading to
        a 202 + job id response (the work keeps running).
    sample_interval:
        Seconds between ``stats()`` ring-buffer samples (0 disables the
        sampler thread; ``/v1/stats`` then shows only on-demand samples).
    slow_requests:
        Capacity of the slow-request log (top-N finished requests by
        duration, with span breakdowns — fed to ``/v1/stats`` and the
        ``/dashboard`` table).
    """

    def __init__(
        self,
        service: "CompileService",
        *,
        tenants: "TenantRegistry | list[Tenant] | None" = None,
        host: str = "127.0.0.1",
        port: int = 0,
        sync_timeout: float = 60.0,
        sample_interval: float = 1.0,
        max_finished_jobs: int = 1024,
        slow_requests: int = 32,
        name: str = "repro-gateway",
    ):
        self.name = name
        self.service = service
        if tenants is None:
            self.registry = None
            self._anonymous = Tenant(name="anonymous", key="-", admin=True)
        elif isinstance(tenants, TenantRegistry):
            self.registry = tenants
        else:
            self.registry = TenantRegistry(list(tenants))
        self.fairshare = FairShareScheduler()
        self.jobs = JobStore(max_finished=max_finished_jobs)
        self.latency = LatencyWindow()
        self.slowlog = SlowRequestLog(slow_requests)
        self.log = get_logger("gateway")
        self.sync_timeout = sync_timeout
        self._future_jobs: dict = {}
        self._counters = {
            "http_requests": 0,
            "auth_failures": 0,
            "rate_limited": 0,
            "jobs_submitted": 0,
            "jobs_completed": 0,
            "sse_streams": 0,
            "drain_requests": 0,
        }
        self._lock = threading.Lock()
        self._state = "ok"  # ok -> draining -> drained
        self._drain_thread: "threading.Thread | None" = None
        self.sampler = StatsSampler(service.stats, interval=sample_interval or 1.0)
        if sample_interval:
            self.sampler.start()
        service.add_observer(self._on_request_started)
        self._httpd = _GatewayHTTPServer((host, port), _Handler, gateway=self)
        self._serve_thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.1},
            name=f"{name}-http",
            daemon=True,
        )
        self._serve_thread.start()

    # -- lifecycle ---------------------------------------------------------------------

    @property
    def address(self) -> tuple:
        """The bound ``(host, port)`` (the OS-assigned port when ``port=0``)."""
        return self._httpd.server_address[:2]

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    @property
    def state(self) -> str:
        with self._lock:
            return self._state

    def begin_drain(self, grace: "float | None" = None) -> dict:
        """Refuse new compile work, finish queued work, report ``drained``.

        Returns immediately with the current drain status; a background
        thread waits (up to ``grace`` seconds, forever when ``None``) for the
        service to finish every accepted request, then flips the state to
        ``drained``.  Idempotent — repeated calls report progress.
        """
        with self._lock:
            if self._state == "ok":
                self._state = "draining"
                self._counters["drain_requests"] += 1
                started = True
            else:
                self._counters["drain_requests"] += 1
                started = False
        if started:
            self.service.set_draining(True)

            def _drain() -> None:
                completed = self.service.drain(timeout=grace)
                with self._lock:
                    self._state = "drained" if completed else self._state
                if not completed:
                    # Grace expired with work still pending: stay `draining`
                    # (healthz keeps failing; the operator decides what next).
                    pass

            self._drain_thread = threading.Thread(
                target=_drain, name=f"{self.name}-drain", daemon=True
            )
            self._drain_thread.start()
        return self.health()

    def close(self) -> None:
        """Stop the HTTP listener, its open connections and the sampler.

        Kept-alive connections are shut down too, so a closed gateway stops
        answering on them.  The service is left running.
        """
        self.sampler.stop()
        self.service.remove_observer(self._on_request_started)
        self._httpd.shutdown()
        self._httpd.close_connections()
        self._httpd.server_close()
        self._serve_thread.join(timeout=5)

    def __enter__(self) -> "GatewayServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request handling (called from handler threads) --------------------------------

    def bump(self, counter: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[counter] = self._counters.get(counter, 0) + amount

    def counters(self) -> dict:
        with self._lock:
            return dict(self._counters)

    def authenticate(self, api_key: "str | None") -> Tenant:
        if self.registry is None:
            return self._anonymous
        try:
            return self.registry.authenticate(api_key)
        except AuthError as exc:
            self.bump("auth_failures")
            raise _HTTPError(401, "auth_error", str(exc)) from None

    def check_rate(self, tenant: Tenant) -> None:
        if self.registry is None:
            return
        try:
            self.registry.check_rate(tenant)
        except RateLimited as exc:
            self.bump("rate_limited")
            raise _HTTPError(
                429,
                "rate_limited",
                str(exc),
                headers={"Retry-After": exc.header_value()},
            ) from None

    def submit(self, tenant: Tenant, payload: dict, mode: str, trace_id: "str | None" = None):
        """Validate one compile payload and enqueue it; returns the Job.

        ``trace_id`` continues an inbound trace (an ``X-Repro-Trace-Id``
        header the handler already validated); ``None`` mints a fresh id.
        Either way the request gets a ``gateway.request`` root span whose
        context rides to the service, and the finished tree is retrievable
        at ``GET /v1/jobs/<id>/trace``.
        """
        if self.state != "ok":
            raise _HTTPError(
                503, "draining", "gateway is draining; not accepting new work"
            )
        if not isinstance(payload, dict):
            raise _HTTPError(400, "bad_request", "request body must be a JSON object")
        qasm = payload.get("qasm")
        if not isinstance(qasm, str) or not qasm.strip():
            raise _HTTPError(400, "bad_request", "missing required field 'qasm'")
        try:
            circuit = from_qasm(qasm)
        except QasmError as exc:
            raise _HTTPError(400, "qasm_error", str(exc)) from None
        if payload.get("name"):
            circuit.name = str(payload["name"])
        backend = payload.get("backend", "qiskit-o3")
        pass_overrides = payload.get("pass_overrides")
        if pass_overrides is not None and not isinstance(pass_overrides, dict):
            raise _HTTPError(
                400,
                "bad_request",
                "'pass_overrides' must be an object mapping stage names to "
                "registered pass names (see GET /v1/passes)",
            )
        deadline = payload.get("deadline")
        try:
            hint = int(payload.get("priority", 0))
        except (TypeError, ValueError):
            raise _HTTPError(400, "bad_request", "'priority' must be an integer") from None
        hint = max(0, min(hint, tenant.max_priority))
        priority, vtime = self.fairshare.next_ticket(tenant.name, tenant.weight, hint=hint)
        root = Span(
            "gateway.request",
            trace_id=trace_id or new_trace_id(),
            attrs={
                "tenant": tenant.name,
                "backend": str(backend),
                "mode": mode,
                "priority": hint,
            },
        )
        try:
            # The service gets the *context*, not the span object, so the
            # tree it builds is identical whether it lives in this process
            # or behind `python -m repro.service`.
            future = self.service.submit(
                circuit,
                backend,
                device=payload.get("device"),
                objective=payload.get("objective", "fidelity"),
                seed=int(payload.get("seed", 0)),
                priority=priority,
                deadline=deadline,
                pass_overrides=pass_overrides,
                trace=root.context(),
            )
        except (TypeError, KeyError, ValueError) as exc:
            # Unknown backend/device/objective, a bad deadline, or a bad pass
            # override (UnknownPassError is a KeyError) — caller errors,
            # reported as such (the service validates in our thread).
            message = str(exc.args[0]) if exc.args else str(exc)
            raise _HTTPError(400, "bad_request", message) from None
        except RuntimeError as exc:  # service shut down underneath the gateway
            raise _HTTPError(503, "unavailable", str(exc)) from None
        job = self.jobs.create(
            tenant.name,
            str(backend),
            future,
            mode=mode,
            priority=hint,
            deadline=deadline,
            circuit_name=circuit.name,
            trace_id=root.trace_id,
        )
        self.bump("jobs_submitted")
        self.log.info(
            "job submitted",
            extra={
                "job_id": job.id,
                "tenant": tenant.name,
                "backend": str(backend),
                "mode": mode,
                "trace_id": root.trace_id,
            },
        )
        with self._lock:
            self._future_jobs[future] = job
        future.add_done_callback(
            self._make_done_callback(job, circuit, tenant.name, hint, vtime, root)
        )
        return job

    def _make_done_callback(
        self, job, circuit, tenant_name: str, hint: int, vtime: float, root: Span
    ):
        def _done(future) -> None:
            try:
                result = future.result()
            except Exception as exc:  # noqa: BLE001 - futures normally hold results
                from ..service.service import _failure_result

                result = _failure_result(circuit, job.backend, "fidelity", exc)
            # Complete the trace: the service's span tree (carried home in
            # result.metadata["trace"]) nests under the gateway root span,
            # and the whole tree becomes the job's /trace payload.
            service_tree = result.metadata.get("trace")
            if service_tree:
                root.add(service_tree)
            elapsed_root = root.finish(status="ok" if result.succeeded else "error")
            job.trace = root.to_dict()
            job.finish(result)
            self.jobs.mark_finished(job)
            self.fairshare.complete(vtime)
            # Monotonic: an NTP step mid-request must not feed a negative or
            # inflated latency into the window/histograms (job.created_at is
            # wall-clock, display only).
            elapsed = job.elapsed()
            self.latency.observe(f"tenant:{tenant_name}", elapsed)
            self.latency.observe(f"priority:{hint}", elapsed)
            self.slowlog.observe(
                trace_id=root.trace_id,
                name=job.circuit_name or job.id,
                seconds=elapsed_root,
                tree=job.trace,
                tenant=tenant_name,
                backend=job.backend,
                status="ok" if result.succeeded else "error",
            )
            self.bump("jobs_completed")
            self.log.info(
                "job finished",
                extra={
                    "job_id": job.id,
                    "tenant": tenant_name,
                    "trace_id": root.trace_id,
                    "seconds": round(elapsed, 6),
                    "succeeded": result.succeeded,
                },
            )
            with self._lock:
                self._future_jobs.pop(future, None)

        return _done

    def _on_request_started(self, request) -> None:
        with self._lock:
            job = self._future_jobs.get(request.future)
        if job is not None:
            job.record("started", {"backend": request.backend.name})

    # -- read-side payloads ------------------------------------------------------------

    def health(self) -> dict:
        state = self.state
        service_health = self.service.health()
        return {
            "name": self.name,
            "status": state,
            "ready": state == "ok" and service_health["ready"],
            "service": service_health,
            "jobs_unfinished": self.jobs.stats()["unfinished"],
        }

    def stats(self) -> dict:
        payload = {
            "gateway": {
                "name": self.name,
                "status": self.state,
                "counters": self.counters(),
                "jobs": self.jobs.stats(),
                "latency": self.latency.summary(),
                "fair_share": self.fairshare.stats(),
                "slow_requests": self.slowlog.snapshot(),
            },
            "service": self.service.stats(),
            "timeseries": self.sampler.series(),
        }
        if self.registry is not None:
            payload["tenants"] = self.registry.stats()
        return payload

    def metrics_text(self) -> str:
        return render_prometheus(
            self.service.stats(),
            gateway_counters=self.counters(),
            tenant_stats=self.registry.stats() if self.registry else None,
            latency=self.latency,
            health=self.health(),
        )


class _GatewayHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address, handler, *, gateway: GatewayServer):
        self.gateway = gateway
        self._connections: set = set()
        self._connections_lock = threading.Lock()
        super().__init__(address, handler)

    def process_request(self, request, client_address) -> None:
        with self._connections_lock:
            self._connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._connections_lock:
            self._connections.discard(request)
        super().shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        # A client dropping its kept-alive connection is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)

    def close_connections(self) -> None:
        """Shut down every open connection; its handler thread then exits."""
        with self._connections_lock:
            connections = list(self._connections)
        for connection in connections:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:  # already closed by its handler
                pass


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    # Headers and body go out in two writes; with Nagle's algorithm on, the
    # body waits for the client's delayed ACK (~40 ms) on a kept-alive
    # connection.
    disable_nagle_algorithm = True
    #: socket timeout: an idle kept-alive connection closes after it
    timeout = KEEPALIVE_IDLE_SECONDS
    server: _GatewayHTTPServer

    # -- plumbing ----------------------------------------------------------------------

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        """Silence the default stderr access log (metrics cover it)."""

    @property
    def gateway(self) -> GatewayServer:
        return self.server.gateway

    def _api_key(self) -> "str | None":
        key = self.headers.get("X-API-Key")
        if key:
            return key.strip()
        auth = self.headers.get("Authorization", "")
        if auth.lower().startswith("bearer "):
            return auth[7:].strip()
        return None

    def _send_json(self, status: int, payload: dict, headers: "dict | None" = None) -> None:
        body = json.dumps(payload).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        if self.close_connection:
            self.send_header("Connection", "close")
        self._send_trace_header()
        for name, value in (headers or {}).items():
            self.send_header(name, value)
        self.end_headers()
        self.wfile.write(body)

    def _send_trace_header(self) -> None:
        """Echo the request's trace id so clients can correlate logs/traces."""
        trace_id = getattr(self, "trace_id", None)
        if trace_id:
            self.send_header("X-Repro-Trace-Id", trace_id)

    def _send_error_payload(self, exc: _HTTPError) -> None:
        self._send_json(
            exc.status,
            {"error": {"type": exc.error_type, "message": exc.message}},
            headers=exc.headers,
        )

    def _read_body(self) -> bytes:
        """Read the whole request body, before any response is sent.

        A body left unread on a kept-alive connection would be parsed as the
        next request, so a body that cannot be read whole (a bad or
        oversized ``Content-Length``, or chunked encoding) is refused and
        closes the connection instead.
        """
        value = (self.headers.get("Content-Length") or "").strip()
        chunked = "Transfer-Encoding" in self.headers
        if not value and not chunked:
            return b""
        if chunked:
            error = _HTTPError(400, "bad_request", "chunked request bodies are not supported")
        elif not (value.isascii() and value.isdigit()):
            error = _HTTPError(400, "bad_request", f"invalid Content-Length {value!r}")
        elif len(value) > 15 or int(value) > MAX_BODY_BYTES:  # len first: int() of 5k digits raises
            error = _HTTPError(413, "too_large", f"request body exceeds {MAX_BODY_BYTES} bytes")
        else:
            try:
                body = self.rfile.read(int(value))
            except TimeoutError:  # the client stalled mid-body
                body = b""
            if len(body) == int(value):
                return body
            error = _HTTPError(400, "bad_request", "incomplete request body")
        self.close_connection = True
        raise error

    def _read_json(self) -> dict:
        if not self.body:
            return {}
        try:
            return json.loads(self.body)
        except json.JSONDecodeError as exc:
            raise _HTTPError(400, "bad_json", f"request body is not valid JSON: {exc}") from None

    def _dispatch(self, method: str) -> None:
        self.gateway.bump("http_requests")
        # One trace id per HTTP request: honour a well-formed inbound
        # X-Repro-Trace-Id (so callers can stitch the gateway into their own
        # traces), mint a fresh one otherwise.  Echoed on every response.
        inbound = (self.headers.get("X-Repro-Trace-Id") or "").strip()
        self.trace_id = inbound if valid_trace_id(inbound) else new_trace_id()
        parts = urlsplit(self.path)
        path = parts.path.rstrip("/") or "/"
        query = {k: v[-1] for k, v in parse_qs(parts.query).items()}
        try:
            self.body = self._read_body()
            self._route(method, path, query)
        except _HTTPError as exc:
            self._send_error_payload(exc)
        except (BrokenPipeError, ConnectionResetError):  # client went away
            self.close_connection = True
        except Exception as exc:  # noqa: BLE001 - surface as a 500, keep serving
            self._send_json(
                500,
                {"error": {"type": "internal", "message": f"{type(exc).__name__}: {exc}"}},
            )

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._dispatch("POST")

    # -- routing -----------------------------------------------------------------------

    def _route(self, method: str, path: str, query: dict) -> None:
        if path == "/healthz" and method == "GET":
            return self._handle_healthz()
        if path == "/metrics" and method == "GET":
            return self._handle_metrics()
        if path == "/dashboard" and method == "GET":
            # Static HTML shell, no data: the page itself authenticates its
            # /v1/stats polls with the API key the operator provides.
            return self._handle_dashboard()
        tenant = self.gateway.authenticate(self._api_key())
        if path == "/v1/compile" and method == "POST":
            return self._handle_compile(tenant, query)
        if path == "/v1/stats" and method == "GET":
            return self._send_json(200, self.gateway.stats())
        if path == "/v1/passes" and method == "GET":
            return self._handle_passes(query)
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/") :]
            job_id, _, sub = rest.partition("/")
            job = self.gateway.jobs.get(job_id, None if tenant.admin else tenant.name)
            if job is None:
                raise _HTTPError(404, "not_found", f"no job {job_id!r} for this tenant")
            if sub == "":
                return self._send_json(200, job.describe())
            if sub == "result":
                return self._handle_result(job)
            if sub == "events":
                return self._handle_events(job)
            if sub == "trace":
                return self._handle_trace(job)
            raise _HTTPError(404, "not_found", f"unknown job sub-resource {sub!r}")
        if path == "/admin/drain" and method == "POST":
            if not tenant.admin:
                raise _HTTPError(
                    403, "forbidden", f"tenant {tenant.name!r} is not an admin"
                )
            body = self._read_json()
            grace = body.get("grace")
            status = self.gateway.begin_drain(None if grace is None else float(grace))
            return self._send_json(202, status)
        raise _HTTPError(404, "not_found", f"no route for {method} {path}")

    # -- endpoint bodies ---------------------------------------------------------------

    def _handle_healthz(self) -> None:
        health = self.gateway.health()
        self._send_json(200 if health["ready"] else 503, health)

    def _handle_metrics(self) -> None:
        body = self.gateway.metrics_text().encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self._send_trace_header()
        self.end_headers()
        self.wfile.write(body)

    def _handle_dashboard(self) -> None:
        body = render_dashboard().encode()
        self.send_response(200)
        self.send_header("Content-Type", "text/html; charset=utf-8")
        self.send_header("Content-Length", str(len(body)))
        self._send_trace_header()
        self.end_headers()
        self.wfile.write(body)

    def _handle_trace(self, job) -> None:
        """The job's finished span tree (202 while the request is running)."""
        if job.trace is None:
            return self._send_json(
                202,
                {"job_id": job.id, "state": job.state, "trace_id": job.trace_id},
                headers={"Retry-After": "1"},
            )
        self._send_json(
            200,
            {"job_id": job.id, "trace_id": job.trace_id, "trace": job.trace},
        )

    def _handle_passes(self, query: dict) -> None:
        """The pass-registry catalog: what names a ``pass_overrides`` may use.

        ``?role=routing`` filters to one stage role.  The catalog is
        process-local code metadata (every process running this build has the
        same registry), so it is served directly rather than via the service.
        """
        from ..passes import PassRole, pass_catalog

        role = query.get("role")
        if role is not None and role not in PassRole.ALL:
            raise _HTTPError(
                400,
                "bad_request",
                f"unknown role {role!r}; expected one of {', '.join(PassRole.ALL)}",
            )
        return self._send_json(200, {"passes": pass_catalog(role=role)})

    def _handle_compile(self, tenant: Tenant, query: dict) -> None:
        self.gateway.check_rate(tenant)
        payload = self._read_json()
        mode = str(query.get("mode") or payload.get("mode") or "sync").lower()
        if mode not in ("sync", "async"):
            raise _HTTPError(400, "bad_request", f"mode must be sync or async, got {mode!r}")
        job = self.gateway.submit(tenant, payload, mode, trace_id=self.trace_id)
        links = {
            "status_url": f"/v1/jobs/{job.id}",
            "result_url": f"/v1/jobs/{job.id}/result",
            "events_url": f"/v1/jobs/{job.id}/events",
            "trace_url": f"/v1/jobs/{job.id}/trace",
        }
        if mode == "async":
            return self._send_json(202, {"job_id": job.id, "state": job.state, **links})
        timeout = payload.get("timeout")
        wait = self.gateway.sync_timeout
        if timeout is not None:
            try:
                wait = min(float(timeout), wait)
            except (TypeError, ValueError):
                raise _HTTPError(400, "bad_request", "'timeout' must be a number") from None
        try:
            result = job.future.result(timeout=wait)
        except (TimeoutError, FutureTimeoutError):
            # Still compiling: degrade to async semantics instead of holding
            # the connection forever — the job id keeps working.
            return self._send_json(
                202,
                {"job_id": job.id, "state": job.state, "timed_out_after": wait, **links},
            )
        self._send_json(
            200,
            {"job_id": job.id, "state": "done", "result": result.to_dict(), **links},
        )

    def _handle_result(self, job) -> None:
        if not job.done:
            return self._send_json(
                202,
                {"job_id": job.id, "state": job.state},
                headers={"Retry-After": "1"},
            )
        result = job.result
        assert result is not None
        self._send_json(200, {"job_id": job.id, "state": job.state, "result": result.to_dict()})

    def _handle_events(self, job) -> None:
        """Stream the job's lifecycle as server-sent events until it is done."""
        self.gateway.bump("sse_streams")
        self.send_response(200)
        self.send_header("Content-Type", "text/event-stream")
        self.send_header("Cache-Control", "no-cache")
        self.send_header("Connection", "close")
        self._send_trace_header()
        self.end_headers()
        self.close_connection = True
        index = 0
        deadline = time.monotonic() + MAX_STREAM_SECONDS
        while time.monotonic() < deadline:
            events = job.events_since(index, timeout=0.5)
            if events:
                for event in events:
                    data = json.dumps(
                        {
                            "job_id": job.id,
                            "trace_id": job.trace_id,
                            "time": event["time"],
                            **event["data"],
                        }
                    )
                    self.wfile.write(
                        f"event: {event['event']}\ndata: {data}\n\n".encode()
                    )
                index += len(events)
                self.wfile.flush()
            elif job.done:
                return  # log exhausted and job finished: stream complete
            else:
                self.wfile.write(b": keepalive\n\n")
                self.wfile.flush()
