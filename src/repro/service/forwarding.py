"""Request forwarding between sibling compile hosts.

A single :class:`~repro.service.CompileService` host saturates its lanes and
then queues; a cluster wants the overflow to land on a sibling that still has
headroom.  :class:`ForwardingService` is that router: it fronts one *local*
service and holds a :class:`~repro.service.ServiceClient` per *peer* host.
Each submission is served locally while the local queue is shallow, and
spilled to the least-loaded ready peer once the local backlog crosses
``spill_threshold`` (or the local host is draining for a rolling restart).

Everything the single-host QoS surface carries travels intact on the routed
hop: ``priority``, ``deadline`` and ``pass_overrides`` are forwarded verbatim,
and the trace context is threaded through a ``service.forward`` span so
``result.metadata["trace"]`` shows the hop explicitly::

    service.forward (peer=svc-b)
    └── service.request          # built on the peer, grafted back here
        ├── queue.wait
        └── lane.execute ...

Peers are health-checked through their ``health()`` RPC with a short cache
(``probe_interval``) so routing decisions do not add a round trip per
submission; a peer whose RPC fails is benched for ``retry_interval`` seconds.
A forwarded request whose peer dies mid-flight is resubmitted locally — a
request accepted by the router is never lost to a peer failure.

The class exposes the full service RPC surface (``submit_request`` /
``poll_tickets`` / ``stats`` / ``ping`` / ``health`` / ``set_draining``), so
``python -m repro.service --peer host:port`` serves a router in place of the
bare service with no client-side changes.
"""

from __future__ import annotations

from concurrent.futures import Future
from dataclasses import replace
from threading import Lock
from time import perf_counter
from typing import TYPE_CHECKING

from ..obs import Span, as_context
from .client import ServiceClient
from .service import CompileService, TicketBook

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..api.registry import CompilerBackend
    from ..circuit.circuit import QuantumCircuit
    from ..devices.device import Device

__all__ = ["ForwardingService"]


class _Peer:
    """One sibling host: its client, cached health, and routing counters."""

    def __init__(self, name: str, client: ServiceClient):
        self.name = name
        self.client = client
        self.health: dict | None = None
        self.checked_at = float("-inf")
        self.down = False
        self.retry_at = 0.0
        self.forwarded = 0
        self.errors = 0
        self.rescued = 0  # forwards that failed and were re-served locally


class ForwardingService:
    """Route submissions between a local service and its cluster peers.

    Parameters
    ----------
    service:
        The local :class:`CompileService` this router fronts.
    peers:
        ``{name: ServiceClient}`` (or an iterable of clients, named by their
        ``ping()``) for the sibling hosts.  More can be added later with
        :meth:`add_peer`; a restarted host is swapped in with
        :meth:`replace_peer`.
    spill_threshold:
        Local backlog (queued + in-flight requests) at which submissions
        start spilling to peers.  The router still compares loads: it only
        forwards to a peer reporting *less* backlog than the local host.
    probe_interval:
        Seconds a peer health snapshot stays fresh; routing never does more
        than one ``health()`` RPC per peer per interval.
    retry_interval:
        Seconds an unreachable peer stays benched before being re-probed.
    """

    def __init__(
        self,
        service: CompileService,
        peers: "dict[str, ServiceClient] | list[ServiceClient] | None" = None,
        *,
        spill_threshold: int = 4,
        probe_interval: float = 1.0,
        retry_interval: float = 5.0,
    ):
        self.service = service
        self.spill_threshold = int(spill_threshold)
        self.probe_interval = float(probe_interval)
        self.retry_interval = float(retry_interval)
        self._lock = Lock()
        self._peers: list[_Peer] = []
        self._ticket_book = TicketBook()
        self._served_local = 0
        self._outstanding = 0  # forwarded requests not yet resolved
        if peers:
            items = peers.items() if isinstance(peers, dict) else ((None, c) for c in peers)
            for name, client in items:
                self.add_peer(client, name=name)

    # -- peer management ---------------------------------------------------------------

    def add_peer(self, client: ServiceClient, name: str | None = None) -> str:
        """Register a sibling host; returns the name it is tracked under."""
        if name is None:
            name = client.ping()  # raises early if the peer is unreachable
        with self._lock:
            self._peers.append(_Peer(name, client))
        return name

    def replace_peer(self, name: str, client: ServiceClient) -> None:
        """Swap a peer's client (e.g. after its host restarted) and un-bench it.

        The old client is closed; counters carry over so ``stats()`` keeps
        the peer's full history across restarts.
        """
        with self._lock:
            for peer in self._peers:
                if peer.name == name:
                    old = peer.client
                    peer.client = client
                    peer.down = False
                    peer.health = None
                    peer.checked_at = float("-inf")
                    break
            else:
                raise KeyError(f"unknown peer {name!r}")
        try:
            old.close()
        except Exception:  # noqa: BLE001 - the old client may already be dead
            pass

    def remove_peer(self, name: str) -> None:
        """Drop a peer from rotation (its client is closed)."""
        with self._lock:
            for index, peer in enumerate(self._peers):
                if peer.name == name:
                    del self._peers[index]
                    break
            else:
                raise KeyError(f"unknown peer {name!r}")
        try:
            peer.client.close()
        except Exception:  # noqa: BLE001
            pass

    # -- routing -----------------------------------------------------------------------

    def _peer_health(self, peer: _Peer) -> dict | None:
        """The peer's health snapshot, refreshed at most once per probe interval."""
        now = perf_counter()
        with self._lock:
            if peer.down and now < peer.retry_at:
                return None
            if peer.health is not None and now - peer.checked_at < self.probe_interval:
                return peer.health if not peer.down else None
        try:
            health = peer.client.health()
        except Exception:  # noqa: BLE001 - unreachable peer leaves rotation
            with self._lock:
                peer.errors += 1
                peer.down = True
                peer.health = None
                peer.checked_at = now
                peer.retry_at = now + self.retry_interval
            return None
        with self._lock:
            peer.down = False
            peer.health = health
            peer.checked_at = now
        return health

    def _pick_peer(self, local_backlog: int, local_ready: bool) -> _Peer | None:
        """The ready peer with the least backlog — if spilling beats serving locally."""
        with self._lock:
            peers = list(self._peers)
        best: _Peer | None = None
        best_backlog = local_backlog if local_ready else float("inf")
        for peer in peers:
            health = self._peer_health(peer)
            if not health or not health.get("ready"):
                continue
            backlog = int(health.get("unfinished", 0))
            if backlog < best_backlog:
                best, best_backlog = peer, backlog
        return best

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
        trace=None,
    ) -> Future:
        """Submit one compilation; serves locally or forwards to a peer.

        The signature and semantics match :meth:`CompileService.submit`; the
        only observable differences on a forwarded request are the
        ``service.forward`` root span in ``result.metadata["trace"]`` and a
        ``metadata["forwarded_to"]`` entry naming the peer.
        """
        health = self.service.health()
        local_ready = bool(health.get("ready"))
        local_backlog = int(health.get("unfinished", 0))
        peer = None
        if not local_ready or local_backlog >= self.spill_threshold:
            peer = self._pick_peer(local_backlog, local_ready)
        kwargs = dict(
            device=device,
            objective=objective,
            seed=seed,
            priority=priority,
            deadline=deadline,
            pass_overrides=pass_overrides,
        )
        if peer is None:
            with self._lock:
                self._served_local += 1
            return self.service.submit(circuit, backend, trace=trace, **kwargs)
        return self._forward(peer, circuit, backend, trace, kwargs)

    def _forward(self, peer: _Peer, circuit, backend, trace, kwargs) -> Future:
        ctx = as_context(trace)
        fwd_span = None
        if ctx is not None:
            fwd_span = Span("service.forward", context=ctx, attrs={"peer": peer.name})
        try:
            inner = peer.client.submit(
                circuit, backend, trace=fwd_span.context() if fwd_span else None, **kwargs
            )
        except Exception:  # noqa: BLE001 - peer died between probe and submit
            with self._lock:
                peer.errors += 1
                peer.rescued += 1
                peer.down = True
                peer.retry_at = perf_counter() + self.retry_interval
            if fwd_span is not None:
                fwd_span.finish(status="error", error="submit failed; served locally")
            with self._lock:
                self._served_local += 1
            return self.service.submit(circuit, backend, trace=trace, **kwargs)
        with self._lock:
            peer.forwarded += 1
            self._outstanding += 1
        outer: Future = Future()
        outer.set_running_or_notify_cancel()
        inner.add_done_callback(
            lambda f: self._resolve_forward(outer, f, peer, fwd_span, circuit, backend, trace, kwargs)
        )
        return outer

    def _resolve_forward(
        self, outer: Future, inner: Future, peer: _Peer, fwd_span, circuit, backend, trace, kwargs
    ) -> None:
        with self._lock:
            self._outstanding -= 1
        try:
            result = inner.result()
        except Exception:  # noqa: BLE001 - peer lost mid-flight: rescue locally
            with self._lock:
                peer.errors += 1
                peer.rescued += 1
                peer.down = True
                peer.retry_at = perf_counter() + self.retry_interval
                self._served_local += 1
            if fwd_span is not None:
                fwd_span.finish(status="error", error="peer lost; re-served locally")
            try:
                retry = self.service.submit(circuit, backend, trace=trace, **kwargs)
            except Exception as exc:  # noqa: BLE001 - local refusal is terminal
                outer.set_exception(exc)
                return
            retry.add_done_callback(
                lambda f: outer.set_exception(f.exception())
                if f.exception()
                else outer.set_result(f.result())
            )
            return
        metadata = {**result.metadata, "forwarded_to": peer.name}
        if fwd_span is not None:
            fwd_span.finish(status="ok" if result.succeeded else "error")
            remote_tree = result.metadata.get("trace")
            if remote_tree is not None:
                fwd_span.add(remote_tree)
            metadata["trace"] = fwd_span.to_dict()
        outer.set_result(replace(result, metadata=metadata))

    def submit_many(self, circuits, backend="qiskit-o3", **kwargs) -> list[Future]:
        """One future per circuit, in input order (each routed independently)."""
        kwargs["trace"] = as_context(kwargs.get("trace"))
        return [self.submit(circuit, backend, **kwargs) for circuit in circuits]

    # -- service RPC surface -----------------------------------------------------------

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
        """``submit()`` for remote callers — same ticket protocol as the service."""
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
        """Resolve any finished tickets among ``tickets`` in one bounded wait."""
        return self._ticket_book.poll(tickets, timeout)

    def ping(self) -> str:
        return self.service.ping()

    def add_observer(self, observer) -> None:
        """Observe request starts on the *local* service (gateway SSE seam).

        Forwarded requests start on the peer; the local observer sees them
        only as resolved futures.
        """
        self.service.add_observer(observer)

    def remove_observer(self, observer) -> None:
        self.service.remove_observer(observer)

    def set_draining(self, draining: bool = True) -> None:
        """Propagate the drain flag to the fronted service."""
        self.service.set_draining(draining)

    @property
    def draining(self) -> bool:
        return self.service.draining

    def health(self) -> dict:
        """Local health plus the router's view of the cluster.

        ``unfinished`` includes requests this router forwarded that have not
        resolved yet, so a rolling-restart drain waits for forwarded work too.
        """
        health = self.service.health()
        with self._lock:
            outstanding = self._outstanding
            peers_ready = sum(
                1 for p in self._peers if not p.down and (p.health or {}).get("ready")
            )
            peer_count = len(self._peers)
        health["unfinished"] += outstanding
        health["forwarded_in_flight"] = outstanding
        health["peers"] = peer_count
        health["peers_ready"] = peers_ready
        return health

    def stats(self) -> dict:
        """The local service's stats plus a per-peer routing section."""
        stats = self.service.stats()
        with self._lock:
            rows = [
                {
                    "peer": peer.name,
                    "down": peer.down,
                    "ready": bool((peer.health or {}).get("ready")),
                    "backlog": (peer.health or {}).get("unfinished"),
                    "forwarded": peer.forwarded,
                    "errors": peer.errors,
                    "rescued": peer.rescued,
                }
                for peer in self._peers
            ]
            stats["forwarding"] = {
                "served_local": self._served_local,
                "forwarded": sum(row["forwarded"] for row in rows),
                "rescued": sum(row["rescued"] for row in rows),
                "outstanding": self._outstanding,
                "spill_threshold": self.spill_threshold,
                "peers": rows,
            }
        return stats

    # -- lifecycle ---------------------------------------------------------------------

    def drain(self, timeout: float | None = None) -> bool:
        return self.service.drain(timeout)

    def shutdown(self, *, drain: bool = True, timeout: float | None = None) -> None:
        """Shut the fronted service down and close every peer client."""
        self.service.shutdown(drain=drain, timeout=timeout)
        with self._lock:
            peers = list(self._peers)
        for peer in peers:
            try:
                peer.client.close()
            except Exception:  # noqa: BLE001
                pass

    def __enter__(self) -> "ForwardingService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        with self._lock:
            names = ", ".join(peer.name for peer in self._peers)
        return f"ForwardingService({self.service.name}, peers=[{names}])"
