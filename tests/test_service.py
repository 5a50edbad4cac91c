"""Tests for the compile-service subsystem and the pluggable cache stores."""

from __future__ import annotations

import pickle
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.api.batch import compile_batch
from repro.bench import benchmark_circuit
from repro.pipeline import CostAwareStore, DictStore, LruCache, TransformCache
from repro.service import CacheServer, CompileService, ServiceClient, SharedCacheStore
from repro.service.service import _Lane


@pytest.fixture(scope="module")
def small_circuits():
    return [benchmark_circuit("ghz", 4), benchmark_circuit("qft", 4)]


@pytest.fixture(scope="module")
def cache_server():
    server = CacheServer(maxsize=512)
    yield server
    server.shutdown()


# ---------------------------------------------------------------------------------
# cache stores: counters, eviction, concurrency
# ---------------------------------------------------------------------------------


class TestDictStoreCounters:
    def test_stats_track_hits_misses_and_evictions(self):
        store = DictStore(maxsize=2)
        assert store.get("a") is None  # miss
        store.put("a", 1)
        store.put("b", 2)
        assert store.get("a") == 1  # hit
        store.put("c", 3)  # evicts "b" (LRU: "a" was touched)
        stats = store.stats()
        assert stats["hits"] == 1
        assert stats["misses"] == 1
        assert stats["evictions"] == 1
        assert stats["entries"] == 2
        assert store.get("b") is None  # the evicted key is gone
        assert store.get("a") == 1 and store.get("c") == 3

    def test_clear_resets_counters(self):
        store = DictStore(maxsize=2)
        store.put("a", 1)
        store.get("a")
        store.get("zzz")
        store.clear()
        assert store.stats() == {
            "entries": 0,
            "hits": 0,
            "misses": 0,
            "evictions": 0,
            "hit_rate": 0.0,
        }


class TestLruCacheStats:
    def test_stats_correct_under_eviction(self):
        cache = LruCache(maxsize=4)
        for i in range(10):
            cache.put(i, i * i)
        assert len(cache) == 4
        assert cache.evictions == 6
        # Only the four most recent keys survive.
        hits = sum(cache.get(i) is not None for i in range(10))
        assert hits == 4
        assert cache.hits == 4 and cache.misses == 6
        stats = cache.stats()
        assert stats["entries"] == 4
        assert stats["hit_rate"] == pytest.approx(0.4)

    def test_counter_attributes_stay_in_sync_with_stats(self):
        cache = LruCache(maxsize=8)
        cache.put("k", "v")
        cache.get("k")
        cache.get("missing")
        assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)
        assert cache.hit_rate == pytest.approx(0.5)

    def test_thread_hammer(self):
        """Concurrent get/put/stats from many threads: no lost updates, no errors."""
        cache = LruCache(maxsize=64)
        n_threads, n_ops = 8, 300
        errors = []
        barrier = threading.Barrier(n_threads)

        def hammer(worker: int) -> None:
            try:
                barrier.wait(timeout=30)
                rng = np.random.default_rng(worker)
                for op in range(n_ops):
                    key = int(rng.integers(0, 96))  # 96 keys > maxsize: forces eviction
                    if op % 3 == 0:
                        cache.put(key, (worker, op))
                    else:
                        value = cache.get(key)
                        if value is not None:
                            assert isinstance(value, tuple) and len(value) == 2
                    if op % 50 == 0:
                        cache.stats()
            except Exception as exc:  # noqa: BLE001 - surfaced after join
                errors.append(exc)

        threads = [threading.Thread(target=hammer, args=(i,)) for i in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not errors
        stats = cache.stats()
        # Every operation was counted exactly once and the cap held.
        gets = n_threads * n_ops - n_threads * len(range(0, n_ops, 3))
        assert stats["hits"] + stats["misses"] == gets
        assert stats["entries"] <= 64
        assert stats["evictions"] > 0

    def test_analysis_cache_counts_evictions(self, small_circuits):
        cache = repro.AnalysisCache(maxsize=1)
        for circuit in small_circuits:
            cache.feature_vector(circuit)
        stats = cache.stats()
        assert stats["evictions"] == 1
        assert stats["entries"] == 1


class TestSharedCacheStore:
    def test_round_trip_and_server_side_counters(self, cache_server):
        store = cache_server.store()
        store.put(("k", 1), {"payload": 7})
        assert store.get(("k", 1)) == {"payload": 7}
        assert store.get(("absent", 0)) is None
        stats = store.stats()
        assert stats["hits"] >= 1 and stats["misses"] >= 1

    def test_pickled_client_sees_same_entries(self, cache_server):
        store = cache_server.store()
        store.put("shared-key", [1, 2, 3])
        clone = pickle.loads(pickle.dumps(store))
        assert clone.get("shared-key") == [1, 2, 3]

    def test_lru_cache_over_shared_store(self, cache_server):
        first = LruCache(store=cache_server.store())
        second = LruCache(store=cache_server.store())
        first.put("cross", "process")
        assert second.get("cross") == "process"

    def test_store_after_shutdown_rejected(self):
        server = CacheServer(maxsize=4)
        server.shutdown()
        with pytest.raises(RuntimeError):
            server.store()


# ---------------------------------------------------------------------------------
# CompileService
# ---------------------------------------------------------------------------------


class TestCompileService:
    def test_round_trip_matches_compile_batch(self, small_circuits):
        """N clients submitting overlapping work == compile_batch, with shared hits."""
        backends = ["qiskit-o1", "tket-o1"]
        reference = compile_batch(
            small_circuits, backends, device="ibmq_washington", cache=None
        )
        with CompileService(max_workers=2) as service:
            clients = [ServiceClient(service) for _ in range(3)]
            futures = [
                (ci, backend, client.submit(circuit, backend, device="ibmq_washington"))
                for client in clients
                for ci, circuit in enumerate(small_circuits)
                for backend in backends
            ]
            results = {}
            for ci, backend, future in futures:
                result = future.result(timeout=120)
                assert result.succeeded
                results.setdefault((ci, backend), []).append(result)
            stats = service.stats()

        for (ci, backend), outcomes in results.items():
            expected = reference.get(ci, backend)
            for outcome in outcomes:
                assert outcome.reward == pytest.approx(expected.reward)
                assert outcome.scores == pytest.approx(expected.scores)
        # Three clients asked for identical work: the overlap must have been
        # served by the shared cache / in-flight coalescing, not recompiled.
        n_unique = len(small_circuits) * len(backends)
        assert stats["submitted"] == 3 * n_unique
        assert stats["completed"] == stats["submitted"]
        assert stats["cache_hits"] + stats["coalesced"] == 2 * n_unique
        assert stats["failed"] == 0
        assert stats["unfinished"] == 0

    def test_warm_cache_serves_second_wave(self, small_circuits):
        """Requests arriving after the first wave completed hit the shared cache."""
        backends = ["qiskit-o1", "tket-o1"]
        with CompileService(max_workers=2) as service:
            first = [
                service.submit(circuit, backend, device="ibmq_washington")
                for circuit in small_circuits
                for backend in backends
            ]
            rewards = [future.result(timeout=120).reward for future in first]
            before = service.stats()["cache"]["hits"]
            second = [
                service.submit(circuit, backend, device="ibmq_washington")
                for circuit in small_circuits
                for backend in backends
            ]
            warm = [future.result(timeout=120) for future in second]
            stats = service.stats()
        assert [r.reward for r in warm] == pytest.approx(rewards)
        assert all(r.metadata.get("cached") for r in warm)
        assert stats["cache"]["hits"] - before == len(warm)
        assert stats["cache_hits"] >= len(warm)

    def test_repeated_wave_is_served_without_dispatch(self, small_circuits):
        """Three clients repeat a finished wave: every request is a cache hit
        and no lane sees new work, whatever the wave's wall time."""
        backends = ["qiskit-o1", "tket-o1"]
        workload = 3 * len(small_circuits) * len(backends)

        def wave(clients):
            futures = [
                client.submit(circuit, backend, device="ibmq_washington")
                for client in clients
                for circuit in small_circuits
                for backend in backends
            ]
            assert all(future.result(timeout=120).succeeded for future in futures)

        def counters(service):
            stats = service.stats()
            dispatched = sum(lane["dispatched"] for lane in stats["lanes"].values())
            return stats["cache_hits"], dispatched

        with CompileService(max_workers=2) as service:
            clients = [ServiceClient(service) for _ in range(3)]
            wave(clients)
            hits, dispatched = counters(service)
            wave(clients)
            assert counters(service) == (hits + workload, dispatched)

    @pytest.mark.parametrize("outcome", ["compile", "cache_hit", "deadline_expiry"])
    def test_request_latency_row_counts_every_resolved_request(self, small_circuits, outcome):
        """Compiles, cache hits and deadline expiries each add one observation."""

        def observed(service) -> int:
            return service.stats()["spans"].get("service.request", {"count": 0})["count"]

        def resolve(service, circuits, **kwargs) -> list:
            futures = service.submit_many(circuits, "qiskit-o0", device="ibmq_washington", **kwargs)
            results = [future.result(timeout=120) for future in futures]
            assert service.drain(timeout=60)
            return results

        with CompileService(max_workers=1) as service:
            if outcome == "cache_hit":
                resolve(service, small_circuits)
            before = observed(service)
            if outcome == "deadline_expiry":
                results = resolve(service, small_circuits, deadline=0)
                assert not any(result.succeeded for result in results)
                assert service.stats()["deadline_exceeded"] == len(small_circuits)
            else:
                results = resolve(service, small_circuits)
                assert all(result.succeeded for result in results)
                cached = [bool(result.metadata.get("cached")) for result in results]
                assert cached == [outcome == "cache_hit"] * len(small_circuits)
            assert "latency" not in service.stats()
            assert observed(service) - before == len(small_circuits)

    def test_per_backend_lanes(self, small_circuits):
        with CompileService() as service:
            futures = [
                service.submit(small_circuits[0], name, device="ibmq_washington")
                for name in ("qiskit-o0", "tket-o0")
            ]
            for future in futures:
                assert future.result(timeout=120).succeeded
            lanes = service.stats()["lanes"]
        assert set(lanes) == {"qiskit-o0", "tket-o0"}
        assert all(lane["kind"] == "thread" for lane in lanes.values())
        assert all(lane["dispatched"] == 1 for lane in lanes.values())

    def test_process_lane_with_shared_store(self, small_circuits, cache_server):
        with CompileService(
            store=cache_server.store(), process_backends=("qiskit-o0",), max_workers=1
        ) as service:
            result = service.submit(
                small_circuits[0], "qiskit-o0", device="ibmq_washington"
            ).result(timeout=180)
            assert result.succeeded
            assert service.stats()["lanes"]["qiskit-o0"]["kind"] == "process"
        # A second service over the same server store reuses the entry.
        with CompileService(store=cache_server.store()) as second:
            again = second.submit(
                small_circuits[0], "qiskit-o0", device="ibmq_washington"
            ).result(timeout=120)
            assert again.metadata.get("cached") is True
            assert again.reward == pytest.approx(result.reward)

    def test_compile_failures_are_captured(self, small_circuits):
        class Failing:
            name = "svc-failing"

            def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
                raise RuntimeError("boom")

        with CompileService() as service:
            result = service.submit(small_circuits[0], Failing()).result(timeout=60)
            assert not result.succeeded
            assert "boom" in result.error
            assert service.stats()["failed"] == 1

    def test_invalid_submissions_fail_fast(self, small_circuits):
        with CompileService() as service:
            with pytest.raises(KeyError):
                service.submit(small_circuits[0], "no-such-backend")
            with pytest.raises(KeyError, match="unknown reward"):
                service.submit(small_circuits[0], "qiskit-o0", objective="no-such-objective")
            stats = service.stats()
            assert stats["submitted"] == 0 and stats["unfinished"] == 0

    def test_unpicklable_backend_rejected_for_process_lane(self, small_circuits):
        class Unpicklable:
            name = "svc-unpicklable"

            def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
                raise AssertionError("never reached")

            def __reduce__(self):
                raise TypeError("cannot pickle")

        with CompileService(process_backends=("svc-unpicklable",)) as service:
            result = service.submit(small_circuits[0], Unpicklable()).result(timeout=60)
            assert not result.succeeded
            assert "pickle" in result.error

    def test_follower_of_a_failed_dispatch_shares_the_failure(self, small_circuits):
        """A request that coalesces onto an owner whose lane creation then
        fails resolves with the owner's error instead of waiting forever."""
        entered, release = threading.Event(), threading.Event()

        class SlowUnpicklable:
            name = "svc-slow-unpicklable"

            def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
                raise AssertionError("never reached")

            def __reduce__(self):
                entered.set()
                release.wait(timeout=60)
                raise TypeError("cannot pickle")

        backend = SlowUnpicklable()
        service = CompileService(process_backends=(backend.name,))
        try:
            owner: list = []
            submitter = threading.Thread(
                target=lambda: owner.append(service.submit(small_circuits[0], backend))
            )
            submitter.start()
            # The owner's submit is now blocked pickling the backend for its
            # lane, with its in-flight entry registered.
            assert entered.wait(timeout=30)
            follower = service.submit(small_circuits[0], backend)
            assert service.stats()["coalesced"] == 1
            release.set()
            submitter.join(timeout=30)
            assert not submitter.is_alive()
            results = [future.result(timeout=30) for future in (*owner, follower)]
        finally:
            release.set()
            service.shutdown(drain=False)
        assert len(results) == 2
        for result in results:
            assert not result.succeeded
            assert "cannot be pickled" in result.error

    def test_concurrent_first_submits_share_one_lane(self, small_circuits, monkeypatch):
        """Threads racing to submit to a cold backend build its lane once."""
        built: list[str] = []
        original_init = _Lane.__init__

        def slow_init(lane, service, backend_name, *args, **kwargs):
            built.append(backend_name)
            time.sleep(0.05)  # every racer reaches _lane_for while this runs
            original_init(lane, service, backend_name, *args, **kwargs)

        monkeypatch.setattr(_Lane, "__init__", slow_init)
        n_threads = 6
        barrier = threading.Barrier(n_threads)
        futures: list = []

        def submitter(seed: int) -> None:
            barrier.wait(timeout=30)
            futures.append(service.submit(small_circuits[0], "qiskit-o0", seed=seed))

        with CompileService(max_workers=1) as service:
            threads = [
                threading.Thread(target=submitter, args=(seed,)) for seed in range(n_threads)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            results = [future.result(timeout=60) for future in futures]
            lanes = service.stats()["lanes"]
        assert len(results) == n_threads and all(r.succeeded for r in results)
        assert built == ["qiskit-o0"]
        assert lanes["qiskit-o0"]["dispatched"] == n_threads

    def test_shutdown_refuses_new_work_and_drains(self, small_circuits):
        service = CompileService()
        future = service.submit(small_circuits[0], "tket-o0", device="ibmq_washington")
        service.shutdown(drain=True)
        assert future.done() and future.result().succeeded
        with pytest.raises(RuntimeError):
            service.submit(small_circuits[0], "tket-o0")
        service.shutdown()  # idempotent

    def test_drain_timeout_returns_false_only_with_pending_work(self):
        with CompileService() as service:
            assert service.drain(timeout=0.5) is True

    def test_facade_service_path(self, small_circuits):
        with CompileService() as service:
            via_service = repro.compile(
                small_circuits[0], "qiskit-o0", device="ibmq_washington", service=service
            )
            direct = repro.compile(small_circuits[0], "qiskit-o0", device="ibmq_washington")
            assert via_service.reward == pytest.approx(direct.reward)
            assert service.stats()["submitted"] == 1

    def test_facade_qos_fields_require_service(self, small_circuits):
        with pytest.raises(ValueError, match="service"):
            repro.compile(small_circuits[0], "qiskit-o0", priority=1)
        with pytest.raises(ValueError, match="service"):
            repro.compile(small_circuits[0], "qiskit-o0", deadline=5.0)
        with CompileService() as service:
            result = repro.compile(
                small_circuits[0],
                "qiskit-o0",
                device="ibmq_washington",
                service=service,
                priority=3,
                deadline=120.0,
            )
            assert result.succeeded

    def test_compile_batch_qos_fields(self, small_circuits):
        with CompileService() as service:
            batch = compile_batch(
                small_circuits,
                ["qiskit-o0"],
                device="ibmq_washington",
                service=service,
                priority=2,
                deadline=300.0,
            )
        assert not batch.failures

    def test_compile_batch_service_duplicates_keep_qos_semantics(self, small_circuits):
        """Duplicate (circuit, backend) entries must get identical QoS verdicts
        through the service — a deadline=0 sweep expires *every* copy instead
        of recompiling duplicates synchronously without a deadline."""
        with CompileService() as service:
            batch = compile_batch(
                [small_circuits[0], small_circuits[0]],
                ["qiskit-o1"],
                device="ibmq_washington",
                service=service,
                deadline=0,
            )
        assert len(batch.results) == 2
        for result in batch.results:
            assert not result.succeeded
            assert result.metadata.get("deadline_exceeded") is True

    def test_cost_aware_store_backs_the_service_cache(self, small_circuits):
        store = CostAwareStore(maxsize=64)
        with CompileService(store=store) as service:
            first = service.submit(
                small_circuits[0], "qiskit-o0", device="ibmq_washington"
            ).result(timeout=120)
            again = service.submit(
                small_circuits[0], "qiskit-o0", device="ibmq_washington"
            ).result(timeout=120)
        assert first.succeeded and again.metadata.get("cached") is True
        stats = store.stats()
        assert stats["entries"] == 1 and stats["hits"] >= 1
        # The entry's cost was taken from the observed compile wall-time.
        assert stats["resident_cost"] == pytest.approx(first.wall_time)

    def test_compile_batch_service_executor(self, small_circuits):
        threaded = compile_batch(
            small_circuits, ["qiskit-o1", "tket-o0"], device="ibmq_washington", cache=None
        )
        with CompileService(max_workers=2) as service:
            serviced = compile_batch(
                small_circuits,
                ["qiskit-o1", "tket-o0"],
                device="ibmq_washington",
                service=service,
            )
        assert [r.reward for r in serviced] == pytest.approx([r.reward for r in threaded])
        assert not serviced.failures

    def test_ticket_rpc_surface(self, small_circuits):
        with CompileService() as service:
            ticket = service.submit_request(
                small_circuits[0], "qiskit-o0", "ibmq_washington"
            )
            done = service.poll_tickets([ticket], timeout=120)
            assert list(done) == [ticket] and done[ticket].succeeded
            with pytest.raises(KeyError):
                service.poll_tickets([ticket])  # tickets are single-use
            assert service.ping() == "compile-service"


class TestRemoteService:
    def test_remote_client_round_trip(self, small_circuits, tmp_path):
        """`python -m repro.service` serves a remote ServiceClient."""
        src = Path(__file__).resolve().parent.parent / "src"
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.service", "--port", "0"],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)},
        )
        try:
            address = authkey = None
            for _ in range(50):
                line = proc.stdout.readline()
                if not line:
                    break
                match = re.search(r"listening on ([\d.]+):(\d+)", line)
                if match:
                    address = (match.group(1), int(match.group(2)))
                match = re.search(r"authkey: ([0-9a-f]+)", line)
                if match:
                    authkey = bytes.fromhex(match.group(1))
                    break
            assert address is not None and authkey is not None, "server did not start"
            with ServiceClient(address=address, authkey=authkey) as client:
                assert client.ping() == "compile-service"
                futures = client.submit_many(
                    small_circuits, backend="tket-o0", device="ibmq_washington"
                )
                rewards = [future.result(timeout=180).reward for future in futures]
                assert all(reward > 0 for reward in rewards)
                stats = client.stats()
                assert stats["completed"] == len(small_circuits)
                # QoS parity: priority and deadline ride the RPC protocol, so
                # remote semantics match in-process ones exactly.
                urgent = client.submit(
                    small_circuits[0],
                    backend="tket-o0",
                    device="ibmq_washington",
                    priority=5,
                ).result(timeout=180)
                assert urgent.succeeded
                expired = client.submit(
                    small_circuits[1], backend="qiskit-o1", deadline=0
                ).result(timeout=180)
                assert not expired.succeeded
                assert expired.metadata.get("deadline_exceeded") is True
                assert "DeadlineExceeded" in expired.error
                assert client.stats()["deadline_exceeded"] == 1
                # pass_overrides parity: the stage swap rides the RPC too.
                swapped = client.submit(
                    small_circuits[0],
                    backend="qiskit-o1",
                    device="ibmq_washington",
                    pass_overrides={"routing": "tket-routing"},
                ).result(timeout=180)
                assert swapped.succeeded
                assert "tket_routing" in swapped.actions
                assert "+routing=tket_routing" in swapped.backend
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
                proc.kill()
                proc.wait()
            proc.stdout.close()

    def test_client_requires_exactly_one_target(self):
        with pytest.raises(ValueError):
            ServiceClient()
        with pytest.raises(ValueError):
            ServiceClient(address=("127.0.0.1", 1))  # authkey missing


# ---------------------------------------------------------------------------------
# vec-env fleets over the shared store
# ---------------------------------------------------------------------------------


class TestVecEnvSharedStore:
    FLOW = [
        "synthesis_basis_translator",
        "optimize_optimize_1q_gates",
        "map_dense_layout_sabre_routing",
        "optimize_cx_cancellation",
        "terminate",
    ]

    def _drive(self, vec, n_envs, episodes):
        probe = repro.CompilationEnv(
            [benchmark_circuit("ghz", 4)], device_name="ibmq_washington", max_steps=25, seed=3
        )
        probe.reset()
        vec.reset(seed=3)
        for _ in range(episodes):
            for name in self.FLOW:
                index = probe.action_by_name(name).index
                vec.step(np.full(n_envs, index))

    def test_async_fleet_shares_transforms_through_server(self, cache_server):
        cache_server.store().clear()
        circuits = [benchmark_circuit("ghz", 4)]
        vec = repro.make_compilation_vec_env(
            circuits,
            2,
            backend="async",
            device_name="ibmq_washington",
            max_steps=25,
            seed=3,
            shared_store=cache_server.store(),
        )
        try:
            self._drive(vec, 2, episodes=2)
        finally:
            vec.close()
        stats = cache_server.stats()
        # Both worker processes memoise into the server: the second member
        # (and the second episode) must be served from it.
        assert stats["hits"] > 0
        assert stats["entries"] > 0

    def test_sync_fleet_accepts_shared_store(self, cache_server):
        cache_server.store().clear()
        circuits = [benchmark_circuit("ghz", 4)]
        vec = repro.make_compilation_vec_env(
            circuits,
            2,
            device_name="ibmq_washington",
            max_steps=25,
            seed=3,
            shared_store=cache_server.store(),
        )
        try:
            self._drive(vec, 2, episodes=1)
            members = vec.envs
            assert all(isinstance(m.transform_cache, TransformCache) for m in members)
        finally:
            vec.close()
        assert cache_server.stats()["hits"] > 0


# ---------------------------------------------------------------------------------
# experimental fixed-point preset backends
# ---------------------------------------------------------------------------------


class TestIterPresetBackends:
    @pytest.mark.parametrize("name,base", [("qiskit-o3-iter", "qiskit-o3"), ("tket-o2-iter", "tket-o2")])
    def test_registered_and_executable(self, name, base, washington):
        backend = repro.get_backend(name)
        assert backend.name == name
        circuit = benchmark_circuit("qft", 5)
        result = repro.compile(circuit, name, device="ibmq_washington")
        assert result.succeeded
        assert washington.is_executable(result.circuit)
        baseline = repro.compile(circuit, base, device="ibmq_washington")
        # Extra fixed-point rounds must never make the circuit worse than the
        # single-round schedule on the 2q-gate count the reward tracks.
        assert (
            result.circuit.num_two_qubit_gates() <= baseline.circuit.num_two_qubit_gates()
        )

    def test_iter_schedule_wraps_post_stage(self):
        backend = repro.get_backend("qiskit-o3-iter")
        stages = {entry["stage"]: entry for entry in backend.schedule}
        base = {entry["stage"]: entry for entry in repro.get_backend("qiskit-o3").schedule}
        assert stages["post_optimization"]["passes"] == base["post_optimization"]["passes"]

    def test_resolve_backend_type_error_lists_names(self):
        with pytest.raises(TypeError, match="qiskit-o3"):
            repro.api.facade.resolve_backend(123)


# ---------------------------------------------------------------------------------
# pass overrides through the service stack
# ---------------------------------------------------------------------------------


class TestServicePassOverrides:
    def test_submit_with_overrides_swaps_the_stage(self, washington):
        circuit = benchmark_circuit("ghz", 4)
        with CompileService() as service:
            result = service.submit(
                circuit,
                "qiskit-o3",
                device="ibmq_washington",
                pass_overrides={"routing": "tket-routing"},
            ).result()
        assert result.succeeded
        assert "tket_routing" in result.actions
        assert "+routing=tket_routing" in result.backend
        assert washington.is_executable(result.circuit)

    def test_overridden_and_base_requests_never_share_cache(self):
        circuit = benchmark_circuit("ghz", 4)
        with CompileService() as service:
            base = service.submit(circuit, "qiskit-o3", device="ibmq_washington").result()
            swapped = service.submit(
                circuit,
                "qiskit-o3",
                device="ibmq_washington",
                pass_overrides={"routing": "basic_swap"},
            ).result()
            again = service.submit(
                circuit,
                "qiskit-o3",
                device="ibmq_washington",
                pass_overrides={"routing": "basic_swap"},
            ).result()
        assert base.backend != swapped.backend
        assert "sabre_swap" in base.actions and "basic_swap" in swapped.actions
        assert again.metadata.get("cached")  # same override → shared cache entry

    def test_bad_override_fails_fast_in_caller_thread(self):
        with CompileService() as service:
            with pytest.raises(KeyError):
                service.submit(
                    benchmark_circuit("ghz", 3),
                    "qiskit-o3",
                    pass_overrides={"routing": "warp_drive"},
                )
            with pytest.raises(TypeError, match="does not support"):
                service.submit(
                    benchmark_circuit("ghz", 3),
                    "best-of",
                    pass_overrides={"routing": "tket-routing"},
                )

    def test_client_in_process_forwards_overrides(self, washington):
        with CompileService() as service:
            client = ServiceClient(service)
            result = client.submit(
                benchmark_circuit("ghz", 4),
                "qiskit-o3",
                device="ibmq_washington",
                pass_overrides={"routing": "tket_routing"},
            ).result()
        assert "tket_routing" in result.actions
