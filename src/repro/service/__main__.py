"""``python -m repro.service`` — run a compile server for remote clients.

Starts a :class:`~repro.service.CompileService` (optionally backed by a
shared :class:`~repro.service.CacheServer`) and exposes it over a
``multiprocessing`` manager::

    $ python -m repro.service --port 7707
    repro compile service listening on 127.0.0.1:7707
    authkey: 6d79736563726574...

Clients connect with the printed credentials::

    client = ServiceClient(address=("127.0.0.1", 7707), authkey=bytes.fromhex("..."))

The process serves until interrupted; Ctrl-C drains in-flight work before
exiting.

Cluster mode
------------

Several hosts become one fabric with three flag families:

* ``--serve-cache`` / ``--cache-bind HOST:PORT`` run a standalone TCP cache
  server (no compile service) that sibling hosts mount as a shard.
* ``--cache-server HOST:PORT`` (repeatable) mounts one or more such shards
  as this host's result store (consistent-hash sharded when several are
  given).  All hosts must share the secret from ``--cache-authkey-file``.
* ``--peer HOST:PORT`` (repeatable) adds sibling compile hosts; the served
  object becomes a :class:`~repro.service.ForwardingService` that spills
  overload to them (``--spill-threshold`` sets the local backlog bound).
  Peers must share this server's authkey (``--authkey-file``).

A two-host, one-shard cluster::

    hostC$ python -m repro.service --serve-cache --cache-bind 0.0.0.0:7800 \\
               --cache-authkey-file secret.key
    hostA$ python -m repro.service --host 0.0.0.0 --port 7707 \\
               --authkey-file svc.key --cache-server hostC:7800 \\
               --cache-authkey-file secret.key --peer hostB:7707
    hostB$ python -m repro.service --host 0.0.0.0 --port 7707 \\
               --authkey-file svc.key --cache-server hostC:7800 \\
               --cache-authkey-file secret.key --peer hostA:7707
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .client import ServiceClient, ServiceManager
from .service import SERVICE_RPC_METHODS, CompileService
from .store import CacheServer, SharedCacheStore


def _parse_endpoint(value: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` with a readable error."""
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise argparse.ArgumentTypeError(
            f"expected HOST:PORT, got {value!r}"
        )
    try:
        return host, int(port)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid port in {value!r}") from None


def _load_authkey(path: str | None, *, generate_to: str | None = None) -> bytes | None:
    """Read a hex-encoded shared secret from ``path``.

    With ``generate_to`` set and the file missing, a fresh key is generated
    and written there (0600), so the first host of a cluster can mint the
    secret that the others copy.
    """
    if path is None:
        return None
    file = Path(path)
    if not file.exists():
        if generate_to is None:
            raise SystemExit(f"authkey file not found: {path}")
        key = os.urandom(16)
        file.write_text(key.hex() + "\n")
        file.chmod(0o600)
        return key
    text = file.read_text().strip()
    try:
        return bytes.fromhex(text)
    except ValueError:
        raise SystemExit(f"authkey file {path} is not hex-encoded") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve repro compilations to remote ServiceClients.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default: loopback)")
    parser.add_argument("--port", type=int, default=0, help="port (default: OS-assigned)")
    parser.add_argument(
        "--bind",
        type=_parse_endpoint,
        default=None,
        metavar="HOST:PORT",
        help="bind address as one HOST:PORT (overrides --host/--port)",
    )
    parser.add_argument(
        "--authkey",
        default=None,
        help="hex-encoded shared secret (default: freshly generated and printed)",
    )
    parser.add_argument(
        "--authkey-file",
        default=None,
        metavar="PATH",
        help="file holding the hex-encoded service secret; generated there on "
        "first use, so every host of a cluster can share one key",
    )
    parser.add_argument(
        "--max-workers",
        type=int,
        default=2,
        help="upper worker bound per backend lane (a submit that finds more "
        "requests queued than idle workers grows its lane toward it)",
    )
    parser.add_argument(
        "--min-workers",
        type=int,
        default=1,
        help="lower worker bound per backend lane (surplus workers retire once "
        "idle; equal to --max-workers pins every lane at that size)",
    )
    parser.add_argument(
        "--process-backends",
        default="",
        help="comma-separated backend names to run on process lanes",
    )
    parser.add_argument(
        "--cache-size", type=int, default=4096, help="capacity of the shared result cache"
    )
    parser.add_argument(
        "--cache-policy",
        choices=("lru", "cost"),
        default="lru",
        help="result-cache eviction policy: pure LRU, or cost-aware (keeps "
        "expensive compilations resident, evicts cheap-to-recompute entries first)",
    )
    parser.add_argument(
        "--shared-cache",
        action="store_true",
        help="back the result cache by a local cache-server process (lets "
        "process-lane workers and external cache clients share entries)",
    )
    cluster = parser.add_argument_group("cluster fabric")
    cluster.add_argument(
        "--serve-cache",
        action="store_true",
        help="run a standalone TCP cache server instead of a compile service "
        "(a shard that sibling hosts mount with --cache-server)",
    )
    cluster.add_argument(
        "--cache-bind",
        type=_parse_endpoint,
        default=("127.0.0.1", 7800),
        metavar="HOST:PORT",
        help="bind address for --serve-cache (default: 127.0.0.1:7800; use "
        "0.0.0.0 to accept other machines)",
    )
    cluster.add_argument(
        "--cache-server",
        type=_parse_endpoint,
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="mount a remote TCP cache server as the result store (repeat for "
        "consistent-hash sharding across several)",
    )
    cluster.add_argument(
        "--cache-authkey-file",
        default=None,
        metavar="PATH",
        help="file holding the hex-encoded cache-server secret (required with "
        "--cache-server; generated on first use with --serve-cache)",
    )
    cluster.add_argument(
        "--cache-timeout",
        type=float,
        default=2.0,
        help="seconds one shard call may take before the shard is marked down "
        "and callers fall back to local compute",
    )
    cluster.add_argument(
        "--peer",
        type=_parse_endpoint,
        action="append",
        default=None,
        metavar="HOST:PORT",
        help="sibling compile host to spill overload to (repeatable; peers "
        "must share this server's authkey)",
    )
    cluster.add_argument(
        "--spill-threshold",
        type=int,
        default=4,
        help="local backlog (queued + in-flight) at which submissions spill "
        "to the least-loaded ready peer",
    )
    parser.add_argument(
        "--json-logs",
        action="store_true",
        help="emit structured JSON logs on stderr (one object per line, "
        "stamped with the active trace_id/span_id)",
    )
    return parser


def _serve_cache(args) -> int:
    """Run a standalone TCP cache shard until interrupted."""
    authkey = _load_authkey(args.cache_authkey_file, generate_to=args.cache_authkey_file)
    server = CacheServer(
        args.cache_size,
        policy=args.cache_policy,
        address=args.cache_bind,
        authkey=authkey,
    )
    host, port = server.address
    print(f"repro cache server listening on {host}:{port}", flush=True)
    if args.cache_authkey_file:
        print(f"authkey file: {args.cache_authkey_file}", flush=True)
    else:
        print(f"authkey: {server.authkey.hex()}", flush=True)
    try:
        import threading

        threading.Event().wait()  # serve until interrupted
    except (KeyboardInterrupt, SystemExit):
        pass
    finally:
        print("cache server stopping ...", flush=True)
        server.shutdown()
        print("cache server stopped", flush=True)
    return 0


def _build_store(args, cache_server):
    """The service's result store from the CLI's cache flags."""
    if args.cache_server:
        cache_authkey = _load_authkey(args.cache_authkey_file)
        if cache_authkey is None:
            raise SystemExit("--cache-server requires --cache-authkey-file")
        shards = [
            SharedCacheStore(address, cache_authkey) for address in args.cache_server
        ]
        if len(shards) == 1:
            return shards[0]
        from .sharding import ShardedCacheStore

        return ShardedCacheStore(shards, timeout=args.cache_timeout)
    if cache_server is not None:
        return cache_server.store()
    if args.cache_policy == "cost":
        from ..pipeline.properties import CostAwareStore

        return CostAwareStore(args.cache_size)
    return None


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.json_logs:
        from ..obs import configure_json_logging

        configure_json_logging()
    if args.serve_cache:
        return _serve_cache(args)
    if args.bind is not None:
        args.host, args.port = args.bind
    authkey = None
    if args.authkey:
        authkey = bytes.fromhex(args.authkey)
    elif args.authkey_file:
        authkey = _load_authkey(args.authkey_file, generate_to=args.authkey_file)
    if authkey is None:
        authkey = os.urandom(16)
    process_backends = tuple(
        name.strip() for name in args.process_backends.split(",") if name.strip()
    )

    cache_server = (
        CacheServer(args.cache_size, policy=args.cache_policy)
        if args.shared_cache and not args.cache_server
        else None
    )
    store = _build_store(args, cache_server)
    service = CompileService(
        store=store,
        process_backends=process_backends,
        max_workers=args.max_workers,
        min_workers=args.min_workers,
        cache_size=args.cache_size,
    )
    served = service
    if args.peer:
        from .forwarding import ForwardingService

        served = ForwardingService(service, spill_threshold=args.spill_threshold)
        for host, port in args.peer:
            # Peers may still be booting: register lazily by address so one
            # host of the cluster can start first.
            try:
                client = ServiceClient(address=(host, port), authkey=authkey)
                served.add_peer(client, name=f"{host}:{port}")
            except Exception as exc:  # noqa: BLE001 - peer not up yet
                print(f"peer {host}:{port} not reachable yet ({exc}); retrying in background", flush=True)
                _retry_peer_in_background(served, (host, port), authkey)

    class _ServerManager(ServiceManager):
        """Server-side manager bound to this process's service instance."""

    _ServerManager.register(
        "compile_service", callable=lambda: served, exposed=SERVICE_RPC_METHODS
    )
    manager = _ServerManager(address=(args.host, args.port), authkey=authkey)
    server = manager.get_server()
    host, port = server.address
    print(f"repro compile service listening on {host}:{port}", flush=True)
    print(f"authkey: {authkey.hex()}", flush=True)
    if args.cache_server:
        shards = ", ".join(f"{h}:{p}" for h, p in args.cache_server)
        print(f"cache shards: {shards}", flush=True)
    if args.peer:
        peers = ", ".join(f"{h}:{p}" for h, p in args.peer)
        print(f"peers: {peers}", flush=True)
    try:
        # serve_forever returns on KeyboardInterrupt/SystemExit.
        server.serve_forever()
    finally:
        print("draining compile service ...", flush=True)
        if served is not service:
            served.shutdown(drain=True)
        else:
            service.shutdown(drain=True)
        if cache_server is not None:
            cache_server.shutdown()
        print("compile service stopped", flush=True)
    return 0


def _retry_peer_in_background(forwarder, address: tuple, authkey: bytes) -> None:
    """Keep trying to connect a not-yet-up peer without blocking startup."""
    import threading
    import time as _time

    def attempt() -> None:
        while True:
            _time.sleep(2.0)
            try:
                client = ServiceClient(address=address, authkey=authkey)
            except Exception:  # noqa: BLE001 - still booting
                continue
            try:
                forwarder.add_peer(client, name=f"{address[0]}:{address[1]}")
            except Exception:  # noqa: BLE001
                client.close()
                continue
            print(f"peer {address[0]}:{address[1]} connected", flush=True)
            return

    threading.Thread(target=attempt, name="peer-connect", daemon=True).start()


if __name__ == "__main__":
    sys.exit(main())
