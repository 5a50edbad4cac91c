"""Server-backed shared cache: one entry set visible from many processes.

The in-process caches (:class:`~repro.pipeline.TransformCache`, the batch
service's ``CompilationCache``) keep their entries in a private
:class:`~repro.pipeline.DictStore` — invisible to worker processes, so a
``ProcessPoolExecutor`` lane or a sibling service recomputes what another
process already produced.  This module closes that gap:

* :class:`CacheServer` hosts one :class:`~repro.pipeline.DictStore` in a
  dedicated manager process and hands out connection credentials;
* :class:`SharedCacheStore` is a picklable client implementing the
  :class:`~repro.pipeline.CacheStore` protocol over that server.  Any cache
  built with ``store=shared_store`` — in the parent, in a pool worker, in
  another service — reads and writes the *same* entries, and the
  hit/miss/eviction counters aggregate across all of them (which is how the
  service's cross-worker-hit metrics are measured).

Every ``get``/``put`` is one round trip to the server, so the shared store
only pays off for values that are expensive to recompute — compiled circuits
and compilation results, not micro-analyses.
"""

from __future__ import annotations

import os
from multiprocessing.managers import BaseManager
from typing import Any

from ..pipeline.properties import CacheStore, CostAwareStore, DictStore

__all__ = ["CacheServer", "SharedCacheStore"]

#: store methods exposed through the manager proxy
_STORE_METHODS = ("get", "put", "stats", "clear")

#: eviction policies a cache server can host
_POLICIES = {"lru": DictStore, "cost": CostAwareStore}

#: the one store instance served by a cache-server process (set by the
#: manager-process initializer, resolved by the registered ``store`` callable)
_SERVER_STORE: CacheStore | None = None


def _init_server_store(maxsize: int, policy: str = "lru") -> None:
    global _SERVER_STORE
    _SERVER_STORE = _POLICIES[policy](maxsize)


def _get_server_store() -> CacheStore:
    assert _SERVER_STORE is not None, "cache-server process not initialised"
    return _SERVER_STORE


class _StoreManager(BaseManager):
    """Manager serving exactly one shared :class:`DictStore`."""


_StoreManager.register("store", callable=_get_server_store, exposed=_STORE_METHODS)


class SharedCacheStore(CacheStore):
    """Picklable :class:`CacheStore` client of a :class:`CacheServer`.

    Connects lazily (and per process — the proxy is dropped on pickling and
    re-established on first use), so instances can be shipped to pool workers
    as plain constructor arguments.
    One instance is safe to use from multiple threads: manager proxies keep
    one connection per thread.
    """

    def __init__(self, address: tuple, authkey: bytes):
        self.address = tuple(address)
        self.authkey = bytes(authkey)
        self._proxy = None

    def _store(self):
        if self._proxy is None:
            manager = _StoreManager(address=self.address, authkey=self.authkey)
            manager.connect()
            self._proxy = manager.store()
        return self._proxy

    def reset(self) -> None:
        """Drop the live proxy so the next call reconnects from scratch.

        A cache server that died and came back at the same address serves a
        *new* store object; the old proxy token points at the dead one.  The
        sharded store calls this before a reconnect attempt so the retry
        negotiates a fresh proxy instead of replaying a stale token.
        """
        self._proxy = None

    def get(self, key) -> Any:
        return self._store().get(key)

    def put(self, key, value, cost: float | None = None) -> None:
        self._store().put(key, value, cost)

    def stats(self) -> dict[str, float]:
        return self._store().stats()

    def clear(self) -> None:
        self._store().clear()

    # -- pickling: ship credentials, reconnect on the other side ---------------------

    def __getstate__(self) -> dict:
        return {"address": self.address, "authkey": self.authkey}

    def __setstate__(self, state: dict) -> None:
        self.address = state["address"]
        self.authkey = state["authkey"]
        self._proxy = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedCacheStore(address={self.address!r})"


class CacheServer:
    """A cache server process hosting one shared store.

    Starts a manager process owning a single store and hands out
    :class:`SharedCacheStore` clients::

        with CacheServer(maxsize=4096) as server:
            cache = CompilationCache(store=server.store())
            ...  # every process holding a store client shares the entries

    ``policy`` selects the server-side eviction policy: ``"lru"`` (a
    :class:`~repro.pipeline.DictStore`, the default) or ``"cost"`` (a
    :class:`~repro.pipeline.CostAwareStore`, which keeps expensive
    compilations resident and evicts cheap-to-recompute entries first).

    The server lives until :meth:`shutdown` (or context-manager exit); client
    stores created from it keep working across ``fork``/``spawn`` because
    they carry only the address and authkey.

    ``address`` is a plain TCP bind: ``("0.0.0.0", 7800)`` exposes the store
    to other machines, which is how several ``python -m repro.service`` hosts
    share one result/transform shard.  Cross-machine deployments must pass an
    explicit ``authkey`` (every host needs the same secret — see the service
    CLI's ``--authkey-file``); the default random key only works for clients
    spawned by this process.
    """

    def __init__(
        self,
        maxsize: int = 4096,
        *,
        policy: str = "lru",
        address: tuple = ("127.0.0.1", 0),
        authkey: bytes | None = None,
    ):
        if policy not in _POLICIES:
            raise ValueError(
                f"unknown cache policy {policy!r}; expected one of {sorted(_POLICIES)}"
            )
        self._authkey = bytes(authkey) if authkey is not None else os.urandom(16)
        self._manager = _StoreManager(address=address, authkey=self._authkey)
        self._manager.start(initializer=_init_server_store, initargs=(maxsize, policy))
        self.address = self._manager.address
        self.maxsize = maxsize
        self.policy = policy
        self._running = True
        # One long-lived client backs stats(): constructing a fresh
        # SharedCacheStore per call would open a new manager connection every
        # time a dashboard or stats aggregator polls the server.
        self._stats_client: SharedCacheStore | None = None

    @property
    def authkey(self) -> bytes:
        """The server's shared secret (what remote hosts need to connect)."""
        return self._authkey

    def store(self) -> SharedCacheStore:
        """A new picklable client of this server's store."""
        if not self._running:
            raise RuntimeError("CacheServer is shut down")
        return SharedCacheStore(self.address, self._authkey)

    def stats(self) -> dict[str, float]:
        """The server-side counters (aggregated over every client).

        Served through one cached client connection — polling stats in a
        loop (dashboards, the sharded store's per-shard aggregation) must
        not churn a manager connection per call.
        """
        if not self._running:
            raise RuntimeError("CacheServer is shut down")
        if self._stats_client is None:
            self._stats_client = self.store()
        return self._stats_client.stats()

    def shutdown(self) -> None:
        """Stop the server process (idempotent)."""
        if self._running:
            self._running = False
            self._stats_client = None
            self._manager.shutdown()

    def __enter__(self) -> "CacheServer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "running" if self._running else "stopped"
        return f"CacheServer(address={self.address!r}, {state})"
