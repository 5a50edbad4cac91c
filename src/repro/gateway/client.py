""":class:`GatewayClient` — a stdlib HTTP client for the gateway.

Used by the tests, benchmarks and examples, and a reasonable starting point
for real non-Python clients (every call is one plain HTTP request; the wire
format is documented by example in the README).  Only ``http.client`` is
used — no third-party HTTP stack.

Each calling thread keeps one persistent (keep-alive) connection, so a warm
request costs one round trip instead of a TCP handshake plus one.
:meth:`GatewayClient.close` (or leaving a ``with`` block) closes them.  A
request is resent once, on a fresh connection, only when a *reused*
connection fails before any response byte arrives — the server closed it
while it sat idle::

    with GatewayClient("http://127.0.0.1:8080", api_key="alice-key") as client:
        result = client.compile(circuit, backend="qiskit-o3", device="ibmq_washington")
        print(result.reward, result.wall_time)

        job_id = client.submit(circuit, backend="tket-o2")       # async
        for event in client.events(job_id):                       # SSE progress
            print(event["event"])
        result = client.result(job_id)
"""

from __future__ import annotations

import http.client
import json
import threading
import time
import weakref
from typing import TYPE_CHECKING
from urllib.parse import urlsplit

from ..api.result import CompilationResult
from ..circuit.qasm import to_qasm

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..circuit.circuit import QuantumCircuit

__all__ = ["GatewayClient", "GatewayError"]

#: how a reused connection fails when the server closed it while idle: no
#: response byte arrived, so the request is safe to send again
_STALE_CONNECTION = (http.client.RemoteDisconnected, ConnectionResetError, BrokenPipeError)


class GatewayError(Exception):
    """A non-2xx gateway response, carrying the structured error payload."""

    def __init__(self, status: int, error_type: str, message: str, retry_after=None):
        self.status = status
        self.error_type = error_type
        #: seconds to wait before retrying (from ``Retry-After``, 429s only)
        self.retry_after = retry_after
        super().__init__(f"HTTP {status} [{error_type}]: {message}")

    @classmethod
    def from_response(cls, status: int, headers, body: bytes) -> "GatewayError":
        """The error for one non-2xx response's status, headers and body."""
        retry_after = headers.get("Retry-After")
        try:
            detail = json.loads(body).get("error", {})
        except Exception:  # noqa: BLE001 - non-JSON error bodies still surface
            detail = {}
        return cls(
            status,
            detail.get("type", "http_error"),
            detail.get("message", body[:200].decode(errors="replace") or f"HTTP {status}"),
            retry_after=float(retry_after) if retry_after else None,
        )


class GatewayClient:
    """Talk to a :class:`~repro.gateway.GatewayServer` over HTTP.

    Safe to share between threads: each thread gets its own kept-alive
    connection.  Call :meth:`close` (or use ``with``) when done.
    """

    def __init__(self, base_url: str, *, api_key: "str | None" = None, timeout: float = 30.0):
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.timeout = timeout
        parts = urlsplit(self.base_url)
        self._connection_class = (
            http.client.HTTPSConnection if parts.scheme == "https" else http.client.HTTPConnection
        )
        self._netloc = parts.netloc
        self._prefix = parts.path
        self._local = threading.local()
        # Weak: a finished thread's connection goes with its thread-local slot.
        self._connections: "weakref.WeakSet[http.client.HTTPConnection]" = weakref.WeakSet()
        self._lock = threading.Lock()

    def close(self) -> None:
        """Close every thread's kept-alive connection (a later call reconnects)."""
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.close()

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- low-level ---------------------------------------------------------------------

    def _connect(self, timeout: "float | None" = None) -> http.client.HTTPConnection:
        return self._connection_class(self._netloc, timeout=timeout or self.timeout)

    def _headers(self, trace_id: "str | None" = None) -> dict:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["X-API-Key"] = self.api_key
        if trace_id:
            headers["X-Repro-Trace-Id"] = trace_id
        return headers

    def _exchange(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        *,
        timeout: "float | None" = None,
        trace_id: "str | None" = None,
    ) -> tuple:
        """One request on this thread's kept-alive connection: ``(status, headers, body)``."""
        connection = getattr(self._local, "connection", None)
        if connection is None:
            connection = self._local.connection = self._connect()
            with self._lock:
                self._connections.add(connection)
        connection.timeout = timeout or self.timeout
        request = (
            method,
            self._prefix + path,
            json.dumps(body).encode() if body is not None else None,
            self._headers(trace_id),
        )
        reused = connection.sock is not None
        try:
            try:
                response = self._send(connection, *request)
            except _STALE_CONNECTION:
                if not reused:
                    raise
                connection.close()
                response = self._send(connection, *request)  # once, on a fresh connection
            return response.status, response.headers, response.read()
        except BaseException:
            connection.close()
            raise

    @staticmethod
    def _send(connection, method: str, url: str, data, headers: dict):
        if connection.sock is not None:
            connection.sock.settimeout(connection.timeout)
        connection.request(method, url, body=data, headers=headers)
        return connection.getresponse()

    def _request(
        self,
        method: str,
        path: str,
        body: "dict | None" = None,
        *,
        timeout: "float | None" = None,
        raw: bool = False,
        trace_id: "str | None" = None,
    ):
        status, headers, payload = self._exchange(
            method, path, body, timeout=timeout, trace_id=trace_id
        )
        if status >= 400:
            raise GatewayError.from_response(status, headers, payload)
        return payload.decode() if raw else json.loads(payload)

    @staticmethod
    def _payload(
        circuit, backend, device, objective, seed, priority, deadline, name,
        pass_overrides=None,
    ) -> dict:
        qasm = circuit if isinstance(circuit, str) else to_qasm(circuit)
        payload = {
            "qasm": qasm,
            "backend": backend,
            "objective": objective,
            "seed": seed,
            "priority": priority,
        }
        if device is not None:
            payload["device"] = device
        if deadline is not None:
            payload["deadline"] = deadline
        if pass_overrides:
            payload["pass_overrides"] = pass_overrides
        if name:
            payload["name"] = name
        elif not isinstance(circuit, str):
            payload["name"] = circuit.name
        return payload

    # -- compile -----------------------------------------------------------------------

    def compile(
        self,
        circuit: "QuantumCircuit | str",
        backend: str = "qiskit-o3",
        *,
        device: "str | None" = None,
        objective: str = "fidelity",
        seed: int = 0,
        priority: int = 0,
        deadline: "float | None" = None,
        name: str = "",
        timeout: "float | None" = None,
        pass_overrides: "dict | None" = None,
        trace_id: "str | None" = None,
    ) -> CompilationResult:
        """Synchronous compile: blocks until done, returns the result.

        ``circuit`` may be a :class:`~repro.circuit.QuantumCircuit` or a raw
        OpenQASM 2 string.  If the gateway's synchronous window elapses first
        (HTTP 202), the client transparently polls the job to completion.
        ``pass_overrides`` maps stage names to registered pass names (see
        :meth:`passes` for the catalog).  ``trace_id`` rides as
        ``X-Repro-Trace-Id`` so the request joins a trace the caller owns
        (fetch the finished span tree with :meth:`trace`).
        """
        payload = self._payload(
            circuit, backend, device, objective, seed, priority, deadline, name,
            pass_overrides,
        )
        if timeout is not None:
            payload["timeout"] = timeout
        response = self._request(
            "POST", "/v1/compile", payload, timeout=(timeout or self.timeout) + 5,
            trace_id=trace_id,
        )
        if response.get("state") == "done":
            return CompilationResult.from_dict(response["result"])
        return self.result(response["job_id"], timeout=timeout)

    def submit(
        self,
        circuit: "QuantumCircuit | str",
        backend: str = "qiskit-o3",
        *,
        device: "str | None" = None,
        objective: str = "fidelity",
        seed: int = 0,
        priority: int = 0,
        deadline: "float | None" = None,
        name: str = "",
        pass_overrides: "dict | None" = None,
        trace_id: "str | None" = None,
    ) -> str:
        """Asynchronous compile: returns the job id immediately.

        ``trace_id`` rides as ``X-Repro-Trace-Id`` (see :meth:`trace`).
        """
        payload = self._payload(
            circuit, backend, device, objective, seed, priority, deadline, name,
            pass_overrides,
        )
        response = self._request(
            "POST", "/v1/compile?mode=async", payload, trace_id=trace_id
        )
        return response["job_id"]

    # -- jobs --------------------------------------------------------------------------

    def job(self, job_id: str) -> dict:
        """Job status: state, priority, timestamps, lifecycle event log."""
        return self._request("GET", f"/v1/jobs/{job_id}")

    def trace(
        self, job_id: str, *, timeout: "float | None" = None, poll: float = 0.05
    ) -> dict:
        """The job's finished span tree, polling until the job completes.

        Returns the ``GET /v1/jobs/<id>/trace`` payload: ``{"job_id",
        "trace_id", "trace"}`` where ``trace`` is the nested span-tree dict
        rooted at the gateway's ``gateway.request`` span.
        """
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        while True:
            response = self._request("GET", f"/v1/jobs/{job_id}/trace")
            if response.get("trace") is not None:
                return response
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {response.get('state')!r} after the timeout"
                )
            time.sleep(poll)

    def result(
        self, job_id: str, *, timeout: "float | None" = None, poll: float = 0.05
    ) -> CompilationResult:
        """Fetch a job's result, polling until it is done (or ``timeout``)."""
        deadline = time.monotonic() + (timeout if timeout is not None else self.timeout)
        while True:
            response = self._request("GET", f"/v1/jobs/{job_id}/result")
            if response.get("state") == "done":
                return CompilationResult.from_dict(response["result"])
            if time.monotonic() >= deadline:
                raise TimeoutError(
                    f"job {job_id} still {response.get('state')!r} after the timeout"
                )
            time.sleep(poll)

    def events(self, job_id: str, *, timeout: "float | None" = None):
        """Stream a job's server-sent events; yields dicts until ``done``.

        Each yielded dict carries ``event`` (``queued``/``started``/``done``)
        plus the event's data fields.  The generator ends when the job
        completes or the server closes the stream.
        """
        # Its own connection, never pooled: the stream ends by closing it.
        connection = self._connect(timeout)
        try:
            connection.request(
                "GET", self._prefix + f"/v1/jobs/{job_id}/events", headers=self._headers()
            )
            response = connection.getresponse()
            if response.status >= 400:
                raise GatewayError.from_response(
                    response.status, response.headers, response.read()
                )
            event_type = None
            for raw in response:
                line = raw.decode().rstrip("\n")
                if line.startswith(":"):
                    continue  # keepalive comment
                if line.startswith("event:"):
                    event_type = line[6:].strip()
                elif line.startswith("data:"):
                    data = json.loads(line[5:].strip())
                    yield {"event": event_type, **data}
                    if event_type == "done":
                        return
                elif not line:
                    event_type = None
        finally:
            connection.close()

    # -- ops ---------------------------------------------------------------------------

    def stats(self) -> dict:
        return self._request("GET", "/v1/stats")

    def passes(self, role: "str | None" = None) -> list:
        """The server's pass catalog — legal ``pass_overrides`` values.

        Each entry carries ``name`` / ``role`` / ``origin`` /
        ``requires_device``; ``role`` filters to one stage role
        (``synthesis`` / ``layout`` / ``routing`` / ``optimization`` /
        ``finalisation``).
        """
        path = "/v1/passes" + (f"?role={role}" if role else "")
        return self._request("GET", path)["passes"]

    def metrics(self) -> str:
        """The raw Prometheus exposition text."""
        return self._request("GET", "/metrics", raw=True)

    def dashboard(self) -> str:
        """The raw ``/dashboard`` HTML (self-contained; view it in a browser)."""
        return self._request("GET", "/dashboard", raw=True)

    def healthz(self) -> dict:
        """Health payload; never raises on 503 (draining is a valid answer)."""
        status, headers, payload = self._exchange("GET", "/healthz")
        if status >= 400 and status != 503:
            raise GatewayError.from_response(status, headers, payload)
        return json.loads(payload)

    def drain(self, grace: "float | None" = None) -> dict:
        """``POST /admin/drain`` (requires an admin tenant's key)."""
        body = {} if grace is None else {"grace": grace}
        return self._request("POST", "/admin/drain", body)
