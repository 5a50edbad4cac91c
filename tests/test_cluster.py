"""Tests for the multi-node service fabric.

Covers the three tentpole pieces — :class:`ShardedCacheStore` (consistent-hash
sharding with graceful degradation), :class:`ForwardingService` (overload
spill to sibling hosts with QoS/trace parity), and :func:`rolling_restart`
(drain → restart → re-admit with zero lost requests) — plus the
distributed-seam regression tests: remote-ticket multiplexing (no
head-of-line blocking past 8 in-flight requests), deterministic client
close, single-connection ``CacheServer.stats()``, and the instance-backend
``TypeError`` on remote submits.

Everything here is in-process or against local TCP cache servers and runs in
the tier-1 lane; the multi-*process* cluster scenarios (two service hosts,
rolling restart under sustained load) live in ``test_cluster_stress.py``
under ``pytest -m stress``.
"""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.api.registry import register_backend, unregister_backend
from repro.api.result import CompilationResult
from repro.bench import benchmark_circuit
from repro.pipeline import DictStore
from repro.service import (
    CacheServer,
    CompileService,
    ForwardingService,
    RollingRestartError,
    ServiceClient,
    ShardedCacheStore,
    SharedCacheStore,
    rolling_restart,
    stable_key_hash,
)


@pytest.fixture(scope="module")
def circuit():
    return benchmark_circuit("ghz", 4)


def _result(circuit, backend_name: str, objective: str = "fidelity") -> CompilationResult:
    return CompilationResult(
        circuit=circuit,
        device=None,
        reward=1.0,
        reward_name=objective,
        backend=backend_name,
        wall_time=0.001,
    )


class ScriptedBackend:
    """Registered backend that returns canned results (and can block)."""

    def __init__(self, name: str, delay: float = 0.0):
        self.name = name
        self.delay = delay
        self.lock = threading.Lock()
        self.calls: list[int] = []
        self.gate: threading.Event | None = None

    def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
        with self.lock:
            self.calls.append(seed)
        if self.gate is not None and seed < 900:
            assert self.gate.wait(timeout=60), "gate never released"
        if self.delay:
            time.sleep(self.delay)
        return _result(circuit, self.name, objective)


@pytest.fixture()
def scripted_backend():
    backend = ScriptedBackend("cluster-scripted")
    register_backend(backend.name, backend)
    yield backend
    unregister_backend(backend.name)


# ---------------------------------------------------------------------------------
# consistent-hash sharding
# ---------------------------------------------------------------------------------


class FailingStore(DictStore):
    """A shard whose calls raise (a dead cache server) while ``broken``."""

    def __init__(self, maxsize: int = 64):
        super().__init__(maxsize)
        self.broken = False
        self.resets = 0

    def _check(self) -> None:
        if self.broken:
            raise ConnectionRefusedError("shard is down")

    def reset(self) -> None:
        self.resets += 1

    def get(self, key):
        self._check()
        return super().get(key)

    def put(self, key, value, cost=None):
        self._check()
        super().put(key, value, cost)

    def stats(self):
        self._check()
        return super().stats()


class TestStableKeyHash:
    def test_deterministic_and_spread(self):
        key = ("fingerprint", "token", "<auto>", 0)
        assert stable_key_hash(key) == stable_key_hash(key)
        assert stable_key_hash(key) != stable_key_hash(key, salt="other")
        hashes = {stable_key_hash(("k", i)) for i in range(256)}
        assert len(hashes) == 256  # 64-bit digest: no collisions at this scale

    def test_placement_agrees_across_instances(self):
        """Two hosts building the ring independently agree on placement."""
        shards_a = [DictStore(16), DictStore(16), DictStore(16)]
        shards_b = [DictStore(16), DictStore(16), DictStore(16)]
        ring_a = ShardedCacheStore(shards_a)
        ring_b = ShardedCacheStore(shards_b)
        keys = [("fp", i, "<auto>", i % 3) for i in range(100)]
        assert [ring_a.shard_for(k) for k in keys] == [ring_b.shard_for(k) for k in keys]
        # and the keyspace actually spreads over all shards
        assert {ring_a.shard_for(k) for k in keys} == {0, 1, 2}


class TestShardedCacheStore:
    def test_round_trip_and_aggregated_stats(self):
        store = ShardedCacheStore([DictStore(64), DictStore(64)])
        for i in range(30):
            store.put(("k", i), i)
        assert all(store.get(("k", i)) == i for i in range(30))
        assert store.get(("missing", 1)) is None
        stats = store.stats()
        assert stats["sharded"] is True
        assert stats["shard_count"] == 2
        assert stats["entries"] == 30
        assert stats["hits"] == 30
        assert stats["misses"] == 1
        assert stats["shards_down"] == 0
        assert len(stats["shards"]) == 2
        # per-shard entries sum to the aggregate
        assert sum(row["entries"] for row in stats["shards"]) == 30
        assert 0 < stats["hit_rate"] < 1

    def test_requires_at_least_one_shard(self):
        with pytest.raises(ValueError):
            ShardedCacheStore([])

    def test_dead_shard_degrades_to_misses_not_errors(self):
        """A dead shard yields None/no-op — never an exception to the caller."""
        shard = FailingStore()
        store = ShardedCacheStore([shard], timeout=1.0, retry_interval=30.0)
        store.put("a", 1)
        shard.broken = True
        assert store.get("a") is None  # degraded, not raised
        store.put("b", 2)  # dropped, not raised
        stats = store.stats()
        assert stats["shards_down"] == 1
        assert stats["fallback_misses"] >= 1
        assert stats["dropped_puts"] >= 1
        assert stats["shards"][0]["down"] is True
        # while benched, further calls short-circuit without reaching the shard
        assert store.get("a") is None

    def test_down_shard_reconnects_after_retry_interval(self):
        shard = FailingStore()
        store = ShardedCacheStore([shard], timeout=1.0, retry_interval=0.05)
        store.put("a", 1)
        shard.broken = True
        assert store.get("a") is None
        assert store.stats()["shards_down"] == 1
        shard.broken = False
        time.sleep(0.08)  # past the retry window
        assert store.get("a") == 1  # reconnected
        stats = store.stats()
        assert stats["shards_down"] == 0
        assert stats["shards"][0]["reconnects"] >= 1
        assert shard.resets >= 1  # the client was told to rebuild its proxy

    def test_timeout_marks_shard_down(self):
        class HangingStore(DictStore):
            def get(self, key):
                time.sleep(5.0)
                return None

        store = ShardedCacheStore([HangingStore(8)], timeout=0.1, retry_interval=30.0)
        start = time.perf_counter()
        assert store.get("x") is None
        assert time.perf_counter() - start < 2.0  # bounded, not 5s
        stats = store.stats()
        assert stats["shards_down"] == 1
        assert stats["shards"][0]["timeouts"] == 1

    def test_pickle_ships_credentials_and_rebuilds_ring(self):
        shards = [SharedCacheStore(("127.0.0.1", 7800 + i), b"secret") for i in range(3)]
        store = ShardedCacheStore(shards, timeout=1.5, retry_interval=3.0, vnodes=32)
        clone = pickle.loads(pickle.dumps(store))
        key = ("fp", "tok", "<auto>", 0)
        assert clone.shard_for(key) == store.shard_for(key)
        assert clone.timeout == 1.5 and clone.vnodes == 32
        assert [s.label for s in clone._states] == [s.label for s in store._states]

    def test_clear_skips_dead_shards(self):
        live, dead = FailingStore(), FailingStore()
        store = ShardedCacheStore([live, dead], retry_interval=30.0)
        for i in range(10):
            store.put(("k", i), i)
        dead.broken = True
        store.clear()  # must not raise
        assert live.stats()["entries"] == 0


# ---------------------------------------------------------------------------------
# TCP cache servers (explicit bind + authkey) and sharding across them
# ---------------------------------------------------------------------------------


class TestTcpCacheServer:
    def test_explicit_authkey_and_bind(self):
        authkey = b"cluster-secret-16"
        with CacheServer(maxsize=64, address=("127.0.0.1", 0), authkey=authkey) as server:
            assert server.authkey == authkey
            # a client built from raw credentials (the cross-machine path)
            client = SharedCacheStore(server.address, authkey)
            client.put("k", "v")
            assert client.get("k") == "v"

    def test_stats_reuses_one_client_connection(self):
        """S3 regression: stats() must not open a fresh connection per call."""
        with CacheServer(maxsize=64) as server:
            server.stats()
            first = server._stats_client
            assert first is not None
            for _ in range(5):
                server.stats()
            assert server._stats_client is first

    def test_sharded_store_over_two_tcp_servers(self):
        with CacheServer(maxsize=128) as server_a, CacheServer(maxsize=128) as server_b:
            store = ShardedCacheStore(
                [server_a.store(), server_b.store()], timeout=5.0, retry_interval=0.2
            )
            for i in range(40):
                store.put(("k", i), i)
            assert all(store.get(("k", i)) == i for i in range(40))
            stats = store.stats()
            assert stats["entries"] == 40
            assert stats["shards_down"] == 0
            # both servers hold part of the keyspace
            assert server_a.stats()["entries"] > 0
            assert server_b.stats()["entries"] > 0

    def test_killed_tcp_shard_degrades_and_store_survives(self):
        """Killing one shard mid-use degrades gets/puts instead of raising."""
        server_a = CacheServer(maxsize=128)
        server_b = CacheServer(maxsize=128)
        try:
            store = ShardedCacheStore(
                [server_a.store(), server_b.store()], timeout=2.0, retry_interval=60.0
            )
            keys = [("k", i) for i in range(40)]
            for i, key in enumerate(keys):
                store.put(key, i)
            shard_of = {key: store.shard_for(key) for key in keys}
            server_b.shutdown()  # kill one shard mid-load
            for i, key in enumerate(keys):
                value = store.get(key)  # must not raise either way
                if shard_of[key] == 0:
                    assert value == i  # surviving shard still serves
            stats = store.stats()
            assert stats["shards_down"] == 1
            assert stats["fallback_misses"] >= 1
        finally:
            server_a.shutdown()
            server_b.shutdown()


# ---------------------------------------------------------------------------------
# service + sharded store integration
# ---------------------------------------------------------------------------------


class TestServiceWithShardedStore:
    def test_cross_service_cache_hits_through_shared_shards(self, circuit):
        """Two services on the same shards see each other's results."""
        with CacheServer(maxsize=256) as server_a, CacheServer(maxsize=256) as server_b:
            shards = lambda: ShardedCacheStore(  # noqa: E731 - one per service
                [server_a.store(), server_b.store()], timeout=10.0
            )
            with CompileService(store=shards(), name="host-a") as svc_a:
                with CompileService(store=shards(), name="host-b") as svc_b:
                    first = svc_a.submit(circuit, "qiskit-o0").result(timeout=120)
                    assert first.succeeded
                    second = svc_b.submit(circuit, "qiskit-o0").result(timeout=120)
                    assert second.succeeded
                    assert second.metadata.get("cached") is True
                    assert svc_b.stats()["cache_hits"] == 1

    def test_repeated_wave_is_served_across_hosts_without_dispatch(self):
        """A finished wave repeated on the other host: every request is a
        shard hit and neither host's lanes see new work."""
        workload = [
            (benchmark_circuit(name, 4), backend)
            for name in ("ghz", "qft")
            for backend in ("qiskit-o0", "tket-o0")
        ]

        def wave(hosts, offset):
            futures = [
                hosts[(index + offset) % len(hosts)].submit(source, backend)
                for index, (source, backend) in enumerate(workload)
            ]
            assert all(future.result(timeout=120).succeeded for future in futures)

        def counters(hosts):
            stats = [host.stats() for host in hosts]
            hits = sum(row["cache_hits"] for row in stats)
            dispatched = sum(
                lane["dispatched"] for row in stats for lane in row["lanes"].values()
            )
            return hits, dispatched

        with CacheServer(maxsize=256) as server_a, CacheServer(maxsize=256) as server_b:
            shards = lambda: ShardedCacheStore(  # noqa: E731 - one per service
                [server_a.store(), server_b.store()], timeout=10.0
            )
            with CompileService(store=shards(), name="host-a") as svc_a:
                with CompileService(store=shards(), name="host-b") as svc_b:
                    hosts = [svc_a, svc_b]
                    wave(hosts, offset=0)
                    hits, dispatched = counters(hosts)
                    # Shifted by one host: each key lands where it was not compiled.
                    wave(hosts, offset=1)
                    assert counters(hosts) == (hits + len(workload), dispatched)

    def test_dead_shard_does_not_fail_compiles(self, circuit):
        """The satellite bug: a dead cache server must not take the lane down."""
        server = CacheServer(maxsize=256)
        store = ShardedCacheStore([server.store()], timeout=2.0, retry_interval=60.0)
        with CompileService(store=store, name="degraded") as service:
            warm = service.submit(circuit, "qiskit-o0").result(timeout=120)
            assert warm.succeeded
            server.shutdown()  # cache gone; compiles must still succeed
            cold = service.submit(circuit, "qiskit-o0", seed=1).result(timeout=120)
            assert cold.succeeded
            stats = service.stats()
            assert stats["cache"]["shards_down"] == 1


# ---------------------------------------------------------------------------------
# request forwarding
# ---------------------------------------------------------------------------------


class TestForwardingService:
    def test_serves_locally_under_threshold(self, circuit):
        with CompileService(name="local") as local, CompileService(name="peer") as peer:
            router = ForwardingService(local, {"peer": ServiceClient(peer)})
            result = router.submit(circuit, "qiskit-o0").result(timeout=120)
            assert result.succeeded
            assert "forwarded_to" not in result.metadata
            stats = router.stats()["forwarding"]
            assert stats["served_local"] == 1
            assert stats["forwarded"] == 0

    def test_draining_local_spills_to_peer_with_full_parity(self, circuit, scripted_backend):
        """Priority, deadline=0, pass_overrides, and trace survive the hop."""
        with CompileService(name="local") as local, CompileService(name="peer") as peer:
            router = ForwardingService(local, {"peer": ServiceClient(peer)})
            local.set_draining(True)

            # priority: observe the forwarded request starting on the peer
            seen: list[int] = []
            peer.add_observer(lambda request: seen.append(request.priority))
            ctx = {"trace_id": "f" * 32, "span_id": "a" * 16}
            result = router.submit(
                circuit, scripted_backend.name, priority=7, trace=ctx
            ).result(timeout=120)
            assert result.succeeded
            assert result.metadata["forwarded_to"] == "peer"
            assert seen == [7]

            # trace: the routed hop shows up as a service.forward root span
            tree = result.metadata["trace"]
            assert tree["name"] == "service.forward"
            assert tree["trace_id"] == ctx["trace_id"]
            assert tree["attrs"]["peer"] == "peer"
            child_names = [child["name"] for child in tree["children"]]
            assert "service.request" in child_names

            # deadline: an already-expired forwarded request expires on the peer
            expired = router.submit(circuit, "qiskit-o1", deadline=0).result(timeout=120)
            assert not expired.succeeded
            assert expired.metadata.get("deadline_exceeded") is True
            assert expired.metadata["forwarded_to"] == "peer"

            # pass_overrides: the derived backend is built on the peer
            swapped = router.submit(
                circuit,
                "qiskit-o1",
                device="ibmq_washington",
                pass_overrides={"routing": "tket-routing"},
            ).result(timeout=120)
            assert swapped.succeeded
            assert "+routing=tket_routing" in swapped.backend

    def test_backlogged_local_spills_to_idle_peer(self, circuit, scripted_backend):
        scripted_backend.gate = threading.Event()
        with CompileService(name="local", max_workers=1, min_workers=1) as local:
            with CompileService(name="peer") as peer:
                router = ForwardingService(
                    local, {"peer": ServiceClient(peer)}, spill_threshold=2
                )
                # saturate the local host directly: 1 running + 3 queued, all gated
                blocked = [
                    local.submit(circuit, scripted_backend.name, seed=i) for i in range(4)
                ]
                # local backlog (4) >= threshold (2) and the peer is idle → spill
                spilled = router.submit(circuit, scripted_backend.name, seed=901)
                result = spilled.result(timeout=120)
                assert result.succeeded
                assert result.metadata.get("forwarded_to") == "peer"
                scripted_backend.gate.set()
                assert all(f.result(timeout=120).succeeded for f in blocked)

    def test_no_ready_peer_serves_locally_even_when_draining(self, circuit):
        with CompileService(name="only") as only:
            router = ForwardingService(only)
            only.set_draining(True)
            result = router.submit(circuit, "qiskit-o0").result(timeout=120)
            assert result.succeeded  # accepted work is served, not refused

    def test_shutdown_peer_is_skipped_and_served_locally(self, circuit):
        with CompileService(name="local") as local, CompileService(name="dead") as dead:
            client = ServiceClient(dead)
            router = ForwardingService(
                local, {"dead": client}, probe_interval=0.0, retry_interval=60.0
            )
            local.set_draining(True)
            dead.shutdown()  # peer reports not-ready after registration
            result = router.submit(circuit, "qiskit-o0").result(timeout=120)
            assert result.succeeded
            assert "forwarded_to" not in result.metadata  # served locally
            rows = router.stats()["forwarding"]["peers"]
            assert rows[0]["ready"] is False

    def test_unreachable_peer_is_benched(self, circuit):
        class DeadClient:
            def health(self):
                raise ConnectionRefusedError("connection refused")

            def close(self):
                pass

        with CompileService(name="local") as local:
            router = ForwardingService(
                local, {"gone": DeadClient()}, probe_interval=0.0, retry_interval=60.0
            )
            local.set_draining(True)
            result = router.submit(circuit, "qiskit-o0").result(timeout=120)
            assert result.succeeded  # rescued locally, not raised
            rows = router.stats()["forwarding"]["peers"]
            assert rows[0]["down"] is True
            assert rows[0]["errors"] >= 1

    def test_health_counts_outstanding_forwards(self, circuit, scripted_backend):
        scripted_backend.gate = threading.Event()
        with CompileService(name="local") as local, CompileService(name="peer") as peer:
            router = ForwardingService(local, {"peer": ServiceClient(peer)})
            local.set_draining(True)
            future = router.submit(circuit, scripted_backend.name, seed=1)
            deadline = time.monotonic() + 10
            while router.health()["forwarded_in_flight"] == 0:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            health = router.health()
            assert health["unfinished"] >= 1  # drains wait for forwarded work
            scripted_backend.gate.set()
            assert future.result(timeout=120).succeeded
            assert router.health()["forwarded_in_flight"] == 0

    def test_replace_peer_restores_routing(self, circuit):
        with CompileService(name="local") as local:
            first = CompileService(name="peer-v1")
            router = ForwardingService(
                local, {"peer": ServiceClient(first)}, probe_interval=0.0
            )
            local.set_draining(True)
            first.shutdown()
            with CompileService(name="peer-v2") as second:
                router.replace_peer("peer", ServiceClient(second))
                result = router.submit(circuit, "qiskit-o0").result(timeout=120)
                assert result.succeeded
                assert result.metadata.get("forwarded_to") == "peer"
            with pytest.raises(KeyError):
                router.replace_peer("nope", ServiceClient(local))

    def test_rpc_surface_issues_tickets(self, circuit):
        with CompileService(name="local") as local:
            router = ForwardingService(local)
            ticket = router.submit_request(circuit, "qiskit-o0")
            done = router.poll_tickets([ticket], timeout=120)
            assert list(done) == [ticket] and done[ticket].succeeded
            with pytest.raises(KeyError):
                router.poll_tickets([ticket])
            assert router.ping() == "local"


# ---------------------------------------------------------------------------------
# rolling restarts
# ---------------------------------------------------------------------------------


class FakeHost:
    """Minimal set_draining/health handle for driver unit tests."""

    def __init__(self, name: str, unfinished: int = 0):
        self.name = name
        self.draining = False
        self.unfinished = unfinished
        self.restarts = 0

    def set_draining(self, draining: bool = True) -> None:
        self.draining = draining
        if draining:
            self.unfinished = 0  # quiesce instantly for unit tests

    def health(self) -> dict:
        status = "draining" if self.draining else "ok"
        return {"status": status, "ready": not self.draining, "unfinished": self.unfinished}


class TestRollingRestart:
    def test_drains_restarts_and_readmits_in_order(self):
        hosts = {"a": FakeHost("a"), "b": FakeHost("b"), "c": FakeHost("c")}
        order: list[str] = []

        def restart(name, handle):
            order.append(name)
            handle.restarts += 1
            return handle

        reports = rolling_restart(hosts, restart, poll_interval=0.01)
        assert order == ["a", "b", "c"]
        assert [r.host for r in reports] == ["a", "b", "c"]
        assert all(h.restarts == 1 for h in hosts.values())
        assert all(not h.draining for h in hosts.values())  # re-admitted

    def test_restart_can_swap_the_handle(self):
        hosts = {"a": FakeHost("a-v1")}
        fresh = FakeHost("a-v2")
        rolling_restart(hosts, lambda name, handle: fresh, poll_interval=0.01)
        assert hosts["a"] is fresh

    def test_drain_timeout_aborts_and_readmits(self):
        class StuckHost(FakeHost):
            def set_draining(self, draining: bool = True) -> None:
                self.draining = draining  # unfinished never reaches zero

        host = StuckHost("stuck", unfinished=3)
        with pytest.raises(RollingRestartError) as excinfo:
            rolling_restart(
                {"stuck": host}, lambda n, h: h, drain_timeout=0.1, poll_interval=0.01
            )
        assert excinfo.value.phase == "drain"
        assert host.restarts == 0  # never bounced with work in flight
        assert not host.draining  # re-admitted, still serving

    def test_in_process_rolling_restart_with_live_services(self, circuit):
        """The real drain path: accepted work finishes before the bounce."""
        services = {
            "a": CompileService(name="svc-a"),
            "b": CompileService(name="svc-b"),
        }
        accepted = [services["a"].submit(circuit, "qiskit-o0", seed=i) for i in range(3)]

        def restart(name, handle):
            assert handle.health()["unfinished"] == 0  # fully quiesced
            handle.shutdown(drain=True)
            return CompileService(name=f"{name}-v2")

        try:
            reports = rolling_restart(services, restart, drain_timeout=120)
            assert [r.host for r in reports] == ["a", "b"]
            # zero lost: everything accepted before the drain resolved fine
            assert all(f.result(timeout=1).succeeded for f in accepted)
            # the new incarnations serve traffic
            again = services["a"].submit(circuit, "qiskit-o0").result(timeout=120)
            assert again.succeeded
        finally:
            for service in services.values():
                service.shutdown(drain=False)


# ---------------------------------------------------------------------------------
# remote-client seam regressions (multiplexed waiter, close, backend TypeError)
# ---------------------------------------------------------------------------------


@pytest.fixture()
def remote_shaped_client():
    """A ServiceClient driven through the ticket RPC surface, in-process.

    The CompileService implements the full RPC protocol
    (submit_request/poll_tickets/...), so pointing the client's proxy at it
    exercises exactly the remote code path — ticket issue, multiplexed
    waiter thread, poll loop — without a subprocess.
    """
    service = CompileService(max_workers=1, min_workers=1)
    client = ServiceClient(service)
    client._service = None
    client._proxy = service
    yield client, service
    client.close()
    service.shutdown(drain=False)


class TestRemoteTicketMultiplexing:
    def test_more_than_eight_inflight_tickets_resolve_out_of_order(
        self, circuit, scripted_backend, remote_shaped_client
    ):
        """S2 regression: the old 8-waiter pool left a completed high-priority
        ticket unresolved behind 8 blocked wait_result calls."""
        client, _service = remote_shaped_client
        scripted_backend.gate = threading.Event()
        # 12 tickets parked on the gated backend's lane; the 13th runs on the
        # qiskit-o0 lane, so the *service* finishes it immediately — the old
        # client would still never resolve it: all 8 waiters blocked on the
        # first 8 slow tickets, and no waiter left to collect this one.
        slow = [client.submit(circuit, scripted_backend.name, seed=i) for i in range(12)]
        fast = client.submit(circuit, "qiskit-o0", priority=10)
        assert fast.result(timeout=120).succeeded
        assert sum(1 for f in slow if f.done()) == 0
        scripted_backend.gate.set()
        assert all(f.result(timeout=120).succeeded for f in slow)

    def test_close_is_deterministic_and_fails_pending(
        self, circuit, scripted_backend, remote_shaped_client
    ):
        client, _service = remote_shaped_client
        scripted_backend.gate = threading.Event()
        pending = client.submit(circuit, scripted_backend.name, seed=1)
        client.close()
        waiter = client._waiter
        assert waiter is not None and not waiter.is_alive()  # joined, not abandoned
        with pytest.raises(RuntimeError, match="closed"):
            pending.result(timeout=5)
        scripted_backend.gate.set()
        client.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            client._register_ticket("req-zombie")

    def test_remote_submit_rejects_backend_instances_without_name(
        self, circuit, remote_shaped_client
    ):
        """S4 regression: a live instance with no usable .name used to be
        silently shipped (pickle failure or wrong-registry resolution)."""
        client, _service = remote_shaped_client

        class NamelessBackend:
            def compile(self, circuit, **kwargs):  # pragma: no cover - never called
                raise AssertionError

        with pytest.raises(TypeError, match="registry"):
            client.submit(circuit, NamelessBackend())

        class EmptyNameBackend(NamelessBackend):
            name = ""

        with pytest.raises(TypeError, match="non-empty"):
            client.submit(circuit, EmptyNameBackend())

    def test_named_instance_is_resolved_by_name(self, circuit, scripted_backend, remote_shaped_client):
        client, _service = remote_shaped_client
        result = client.submit(circuit, scripted_backend).result(timeout=120)
        assert result.succeeded
        assert result.backend == scripted_backend.name

    def test_poll_tickets_rejects_unknown_tickets(self, circuit):
        with CompileService() as service:
            ticket = service.submit_request(circuit, "qiskit-o0")
            with pytest.raises(KeyError):
                service.poll_tickets(["req-bogus"], timeout=0.1)
            # the real ticket still resolves afterwards
            deadline = time.monotonic() + 60
            done: dict = {}
            while ticket not in done and time.monotonic() < deadline:
                done = service.poll_tickets([ticket], timeout=0.5)
            assert done[ticket].succeeded
