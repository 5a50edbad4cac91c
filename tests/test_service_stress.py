"""Deterministic concurrency stress tests for the QoS compile service.

The service went multi-threaded (priority lanes that size themselves,
coalescing across clients) — correctness under concurrency can't be
eyeballed, so this suite hammers one service from many client threads and
asserts the invariants that matter:

* no future is ever lost or resolved twice, whatever mix of priorities and
  coalescible work N clients throw at the queue;
* under a saturated single-worker lane, a high-priority request strictly
  overtakes every queued low-priority one;
* an expired deadline (``deadline=0`` is the extreme case) never reaches a
  worker — the backend is not called, no lane is even created;
* ``shutdown(drain=False)`` racing live submitters leaves no accepted
  future unresolved and no lane worker running;
* a submit that finds more queued requests than idle workers grows the
  lane, a surplus worker retires after its own idle wait, and both scale
  events land in ``stats()``; a lane at ``min_workers`` never polls;
* a killed process-lane worker costs one retry, not the lane.

Everything is driven by events and seeded RNGs — no timing assumptions
beyond generous join timeouts — so the suite is deterministic on slow CI.
Run it alone with ``pytest -m stress``.
"""

from __future__ import annotations

import itertools
import os
import signal
import sys
import threading
import time
from concurrent.futures import Future
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np
import pytest

from repro.api.result import CompilationResult
from repro.bench import benchmark_circuit
from repro.pipeline import DictStore
from repro.service import CompileService, DeadlineExceeded, ServiceClient, ServiceTimeout
from repro.service.service import _Lane

pytestmark = pytest.mark.stress


def _result(circuit, backend_name: str, objective: str) -> CompilationResult:
    return CompilationResult(
        circuit=circuit,
        device=None,
        reward=1.0,
        reward_name=objective,
        backend=backend_name,
        wall_time=0.001,
    )


class RecordingBackend:
    """Scripted backend that records every compile call it receives."""

    def __init__(self, name: str, delay: float = 0.0):
        self.name = name
        self.delay = delay
        self.lock = threading.Lock()
        self.calls: list[int] = []

    def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
        with self.lock:
            self.calls.append(seed)
        if self.delay:
            time.sleep(self.delay)
        return _result(circuit, self.name, objective)


class HeldBackend(RecordingBackend):
    """Backend whose every compile blocks until released (holds its worker)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.started = threading.Semaphore(0)
        self.release = threading.Event()

    def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
        self.started.release()
        assert self.release.wait(timeout=60), "gate never released"
        return super().compile(circuit, device=device, objective=objective, seed=seed)


class GatedBackend(RecordingBackend):
    """Backend whose seed-0 compile blocks until released (lane saturator)."""

    def __init__(self, name: str):
        super().__init__(name)
        self.seed0_running = threading.Event()
        self.release = threading.Event()

    def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
        if seed == 0:
            self.seed0_running.set()
            assert self.release.wait(timeout=60), "gate never released"
        return super().compile(circuit, device=device, objective=objective, seed=seed)


@pytest.fixture()
def circuit():
    return benchmark_circuit("ghz", 4)


class TestNoLostOrDuplicatedFutures:
    N_CLIENTS = 6
    N_PER_CLIENT = 25

    def test_hammer_mixed_priorities(self, circuit):
        """N client threads, mixed priorities, overlapping seeds: every future
        resolves exactly once and the accounting adds up."""
        backend = RecordingBackend("stress-hammer")
        resolved: list[tuple[int, CompilationResult]] = []
        resolve_lock = threading.Lock()
        futures_per_client: list[list[Future]] = [[] for _ in range(self.N_CLIENTS)]
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N_CLIENTS)

        with CompileService(max_workers=3) as service:

            def client_thread(index: int) -> None:
                try:
                    client = ServiceClient(service)
                    rng = np.random.default_rng(index)
                    barrier.wait(timeout=30)
                    def on_done(fut: Future, idx: int = index) -> None:
                        with resolve_lock:
                            resolved.append((idx, fut.result()))

                    for _ in range(self.N_PER_CLIENT):
                        # Seeds overlap across clients on purpose: the shared
                        # cache and in-flight coalescing paths must not lose
                        # or double-resolve futures either.
                        future = client.submit(
                            circuit,
                            backend,
                            seed=int(rng.integers(0, 12)),
                            priority=int(rng.integers(-2, 3)),
                        )
                        future.add_done_callback(on_done)
                        futures_per_client[index].append(future)
                except Exception as exc:  # noqa: BLE001 - surfaced after join
                    errors.append(exc)

            threads = [
                threading.Thread(target=client_thread, args=(i,))
                for i in range(self.N_CLIENTS)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
            assert not errors
            all_futures = [f for per_client in futures_per_client for f in per_client]
            results = [future.result(timeout=120) for future in all_futures]
            stats = service.stats()

        total = self.N_CLIENTS * self.N_PER_CLIENT
        # No future lost: one result per submission, all distinct futures.
        assert len(all_futures) == total
        assert len({id(future) for future in all_futures}) == total
        assert all(isinstance(result, CompilationResult) for result in results)
        assert all(result.succeeded for result in results)
        # No future resolved twice: each done-callback fired exactly once.
        assert len(resolved) == total
        # Accounting: every submission completed, nothing left behind, and
        # the overlap was served without recompiling (12 unique seeds).
        assert stats["submitted"] == total
        assert stats["completed"] == total
        assert stats["failed"] == 0
        assert stats["unfinished"] == 0
        # Every request was served exactly one way: compiled as an owner,
        # from the shared cache, or coalesced onto in-flight work.  (Exactly
        # one *compile per seed* is deliberately NOT asserted: a request may
        # race the owner's cache fill and recompile — best-effort by design.)
        assert stats["cache_hits"] + stats["coalesced"] + len(backend.calls) == total
        assert len(set(backend.calls)) <= 12  # never a seed outside the workload


class TestStrictPriorityOrdering:
    N_LOW = 8

    def test_high_priority_overtakes_saturated_lane(self, circuit):
        """With one worker pinned by a blocker, a later high-priority request
        must complete before all 8 queued low-priority ones."""
        backend = GatedBackend("stress-gate")
        completion_order: list[int] = []
        order_lock = threading.Lock()

        def record(seed: int):
            def callback(_fut: Future) -> None:
                with order_lock:
                    completion_order.append(seed)

            return callback

        with CompileService(max_workers=1, min_workers=1) as service:
            blocker = service.submit(circuit, backend, seed=0)
            assert backend.seed0_running.wait(timeout=30)
            # The single worker is now pinned: everything below queues.
            low_futures = []
            for seed in range(1, self.N_LOW + 1):
                future = service.submit(circuit, backend, seed=seed, priority=0)
                future.add_done_callback(record(seed))
                low_futures.append(future)
            high = service.submit(circuit, backend, seed=99, priority=10)
            high.add_done_callback(record(99))
            # submit() schedules on this thread: all nine requests are in the
            # lane's priority queue by the time it returns.
            assert service.stats()["lanes"]["stress-gate"]["queue_depth"] == self.N_LOW + 1
            backend.release.set()
            for future in [blocker, high, *low_futures]:
                assert future.result(timeout=60).succeeded

        # The worker processed the high-priority request first, before any of
        # the >= 8 low-priority requests that were queued ahead of it.
        assert backend.calls[0] == 0  # the blocker
        assert backend.calls[1] == 99
        assert completion_order[0] == 99
        assert set(completion_order[1:]) == set(range(1, self.N_LOW + 1))
        # Ties (all priority 0) ran in submission order.
        assert completion_order[1:] == sorted(completion_order[1:])


class TestShutdownRace:
    N_SUBMITTERS = 4
    ROUNDS = 5

    def test_shutdown_without_drain_while_submitting(self, circuit):
        """4 threads submit while the main thread calls shutdown(drain=False):
        every accepted future resolves, later submits are refused, and no lane
        worker outlives the service."""

        class SlowStore(DictStore):
            # A slow cache lookup keeps submits scheduling while shutdown
            # stops the lanes, so they reach a lane after it is stopped.
            def get(self, key):
                time.sleep(0.02)
                return super().get(key)

        before = {thread.ident for thread in threading.enumerate()}
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for _round in range(self.ROUNDS):
                service = CompileService(store=SlowStore(), max_workers=1)
                accepted: list[list[Future]] = [[] for _ in range(self.N_SUBMITTERS)]
                refused: list[BaseException] = []

                def submitter(index: int) -> None:
                    try:
                        for n in itertools.count():
                            # Odd submitters create a lane per submit, even
                            # ones keep reusing theirs.
                            name = f"race-{index}-{n}" if index % 2 else f"race-{index}"
                            backend = RecordingBackend(name)
                            accepted[index].append(service.submit(circuit, backend, seed=n))
                    except BaseException as exc:  # noqa: BLE001 - checked below
                        refused.append(exc)

                threads = [
                    threading.Thread(target=submitter, args=(i,))
                    for i in range(self.N_SUBMITTERS)
                ]
                for thread in threads:
                    thread.start()
                deadline = time.monotonic() + 30
                while min(len(futures) for futures in accepted) < 3:
                    assert time.monotonic() < deadline, "submitters never got going"
                    time.sleep(0.005)
                service.shutdown(drain=False)
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                assert len(refused) == self.N_SUBMITTERS
                assert all(
                    isinstance(exc, RuntimeError) and "shut down" in str(exc)
                    for exc in refused
                )
                for futures in accepted:
                    for future in futures:
                        assert isinstance(future.result(timeout=30), CompilationResult)
                with pytest.raises(RuntimeError, match="shut down"):
                    service.submit(circuit, RecordingBackend("race-late"))
        finally:
            sys.setswitchinterval(switch_interval)
        leftover = [
            thread.name
            for thread in threading.enumerate()
            if thread.ident not in before and thread.name.startswith("svc-")
        ]
        assert leftover == []


class TestDeadlines:
    def test_zero_deadline_never_reaches_a_worker(self, circuit):
        backend = RecordingBackend("stress-deadline")
        with CompileService() as service:
            result = service.submit(circuit, backend, deadline=0).result(timeout=30)
            stats = service.stats()
        assert not result.succeeded
        assert result.error.startswith("DeadlineExceeded")
        assert result.metadata["deadline_exceeded"] is True
        assert backend.calls == []  # never compiled ...
        assert "stress-deadline" not in stats["lanes"]  # ... no lane even created
        assert stats["deadline_exceeded"] == 1
        assert stats["completed"] == 1 and stats["failed"] == 1

    def test_zero_deadline_served_from_warm_cache(self, circuit):
        """deadline=0 is cache-or-nothing: a warm key is served for free, only
        a cold key expires."""
        backend = RecordingBackend("stress-warm")
        with CompileService() as service:
            assert service.submit(circuit, backend, seed=3).result(timeout=30).succeeded
            warm = service.submit(circuit, backend, seed=3, deadline=0).result(timeout=30)
            cold = service.submit(circuit, backend, seed=4, deadline=0).result(timeout=30)
        assert warm.succeeded and warm.metadata.get("cached") is True
        assert not cold.succeeded and cold.metadata.get("deadline_exceeded") is True
        assert backend.calls == [3]  # one compile total; deadline=0 never compiled

    def test_expired_request_skipped_while_fresh_ones_compile(self, circuit):
        """A deadline that expires while queued behind a blocker is skipped by
        the worker; requests without deadlines still complete."""
        backend = GatedBackend("stress-expire")
        with CompileService(max_workers=1, min_workers=1) as service:
            blocker = service.submit(circuit, backend, seed=0)
            assert backend.seed0_running.wait(timeout=30)
            doomed = service.submit(circuit, backend, seed=1, deadline=0.05)
            patient = service.submit(circuit, backend, seed=2)
            time.sleep(0.2)  # let the doomed deadline lapse while queued
            backend.release.set()
            assert blocker.result(timeout=60).succeeded
            expired = doomed.result(timeout=60)
            assert patient.result(timeout=60).succeeded
            stats = service.stats()
        assert not expired.succeeded
        assert expired.metadata.get("deadline_exceeded") is True
        assert 1 not in backend.calls  # the expired request never compiled
        assert stats["deadline_exceeded"] == 1

    def test_negative_deadline_rejected(self, circuit):
        with CompileService() as service:
            with pytest.raises(ValueError, match="deadline"):
                service.submit(circuit, "qiskit-o0", deadline=-1)
            assert service.stats()["submitted"] == 0

    def test_deadline_exceeded_exception_exported(self):
        assert issubclass(DeadlineExceeded, RuntimeError)


class TestLaneSizing:
    @staticmethod
    def _wait_for(predicate, timeout: float = 30.0) -> None:
        deadline = time.monotonic() + timeout
        while not predicate():
            assert time.monotonic() < deadline, "condition never held"
            time.sleep(0.005)

    @staticmethod
    def _hold_three_workers(service, backend, circuit) -> list[Future]:
        """Submit four held requests to a 1..3 lane; return their futures."""
        futures = [service.submit(circuit, backend, seed=0)]
        assert backend.started.acquire(timeout=30)
        stats = service.stats()
        assert stats["lanes"][backend.name]["workers"] == 1
        assert stats["autoscaler"]["scale_ups"] == 0

        # Growth happens inside submit: with the only worker held, the next
        # submit returns with a second worker already counted.
        futures.append(service.submit(circuit, backend, seed=1))
        stats = service.stats()
        assert stats["autoscaler"]["scale_ups"] == 1
        assert stats["lanes"][backend.name]["workers"] == 2

        # Whether or not the new worker has claimed seed 1 yet, seeds 2 and 3
        # leave more requests queued than idle workers: the lane hits its cap.
        futures.append(service.submit(circuit, backend, seed=2))
        futures.append(service.submit(circuit, backend, seed=3))
        assert service.stats()["lanes"][backend.name]["workers"] == 3
        return futures

    def test_submit_grows_lane_past_busy_workers(self, circuit):
        backend = HeldBackend("stress-grow")
        with CompileService(max_workers=3, min_workers=1) as service:
            futures = self._hold_three_workers(service, backend, circuit)
            stats = service.stats()
            assert stats["autoscaler"]["scale_ups"] == 2
            ups = stats["autoscaler"]["events"]
            assert [(e["from_workers"], e["to_workers"]) for e in ups] == [(1, 2), (2, 3)]
            assert all(e["lane"] == "stress-grow" and e["event"] == "scale_up" for e in ups)
            backend.release.set()
            assert all(f.result(timeout=60).succeeded for f in futures)

    def test_surplus_workers_retire_on_their_own_wait(self, circuit, monkeypatch):
        monkeypatch.setattr(_Lane, "IDLE_RETIRE_S", 0.01)
        backend = HeldBackend("stress-retire")
        with CompileService(max_workers=3, min_workers=1) as service:
            futures = self._hold_three_workers(service, backend, circuit)
            backend.release.set()
            assert all(f.result(timeout=60).succeeded for f in futures)
            self._wait_for(
                lambda: service.stats()["lanes"]["stress-retire"]["workers"] == 1
            )
            scaler = service.stats()["autoscaler"]
        downs = [e for e in scaler["events"] if e["event"] == "scale_down"]
        assert scaler["scale_downs"] == 2
        assert sorted((e["from_workers"], e["to_workers"]) for e in downs) == [(2, 1), (3, 2)]

    def test_grow_retire_churn_keeps_worker_count_exact(self, circuit, monkeypatch):
        """Concurrent submitters against a lane whose surplus workers retire
        almost at once: every future resolves, and the lane's worker count,
        its scale events and its live threads agree once it settles."""
        monkeypatch.setattr(_Lane, "IDLE_RETIRE_S", 0.001)
        backend = RecordingBackend("stress-churn")
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CompileService(max_workers=4, min_workers=1) as service:
                results: list[CompilationResult] = []
                results_lock = threading.Lock()

                def client(index: int) -> None:
                    # Short bursts with idle gaps between them: the lane
                    # grows inside submit, then sheds workers between bursts.
                    for burst in range(8):
                        futures = [
                            service.submit(circuit, backend, seed=index * 1000 + burst * 10 + i)
                            for i in range(5)
                        ]
                        done = [future.result(timeout=60) for future in futures]
                        with results_lock:
                            results.extend(done)

                threads = [threading.Thread(target=client, args=(i,)) for i in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                lane = service._lanes["stress-churn"]
                self._wait_for(lambda: service.stats()["lanes"]["stress-churn"]["workers"] == 1)
                self._wait_for(lambda: sum(t.is_alive() for t in lane._threads) == 1)
                scaler = service.stats()["autoscaler"]
        finally:
            sys.setswitchinterval(switch)
        assert len(results) == len(backend.calls) == 6 * 8 * 5
        assert all(result.succeeded for result in results)
        assert scaler["scale_ups"] >= 1
        assert scaler["scale_ups"] == scaler["scale_downs"]

    def test_lane_at_min_workers_never_polls(self, circuit):
        """Idle workers at min_workers block with no timeout: no wake-ups."""
        backend = RecordingBackend("stress-idle")
        with CompileService(max_workers=4, min_workers=1) as service:
            assert service.submit(circuit, backend, seed=0).result(timeout=30).succeeded
            lane = service._lanes["stress-idle"]
            timeouts: list = []
            waiting = threading.Event()
            get = lane.queue.get

            def recording_get(block=True, timeout=None):
                timeouts.append(timeout)
                waiting.set()
                return get(block, timeout)

            lane.queue.get = recording_get
            # The worker sits in the unwrapped get; one more request brings it
            # back through the wrapper into its next idle wait.
            assert service.submit(circuit, backend, seed=1).result(timeout=30).succeeded
            assert waiting.wait(timeout=30)
            time.sleep(0.2)  # idle window: a polling worker would wake within it
            assert timeouts == [None]
            assert service.stats()["autoscaler"]["events"] == []

    def test_scale_events_surface_in_stats(self, circuit, monkeypatch):
        """A burst against a 1-worker lane scales it up; idleness scales it
        back down — both visible in stats()."""
        monkeypatch.setattr(_Lane, "IDLE_RETIRE_S", 0.01)
        backend = RecordingBackend("stress-scale", delay=0.02)
        with CompileService(max_workers=4, min_workers=1) as service:
            futures = [service.submit(circuit, backend, seed=seed) for seed in range(40)]
            for future in futures:
                assert future.result(timeout=120).succeeded
            self._wait_for(
                lambda: service.stats()["lanes"]["stress-scale"]["workers"] == 1
            )
            scaler = service.stats()["autoscaler"]
        assert scaler["scale_ups"] >= 1, "burst never triggered a scale-up"
        assert scaler["scale_downs"] == scaler["scale_ups"], "events miss a worker"
        events = scaler["events"]
        ups = [e for e in events if e["event"] == "scale_up"]
        downs = [e for e in events if e["event"] == "scale_down"]
        assert ups and downs
        assert all(e["lane"] == "stress-scale" for e in events)
        assert all(e["to_workers"] == e["from_workers"] + 1 for e in ups)
        assert all(e["to_workers"] == e["from_workers"] - 1 for e in downs)
        assert all(e["to_workers"] <= 4 and e["to_workers"] >= 1 for e in events)

    def test_min_equals_max_pins_lane_at_max(self, circuit):
        backend = RecordingBackend("stress-pinned", delay=0.005)
        with CompileService(max_workers=3, min_workers=3) as service:
            futures = [service.submit(circuit, backend, seed=seed) for seed in range(20)]
            assert all(f.result(timeout=60).succeeded for f in futures)
            lane = service.stats()["lanes"]["stress-pinned"]
            assert lane["workers"] == 3
            # A burst past three busy workers has nowhere to grow.
            assert service.stats()["autoscaler"] == {
                "scale_ups": 0,
                "scale_downs": 0,
                "events": [],
            }


class TestProcessLaneRecovery:
    def test_killed_worker_costs_a_retry_not_the_lane(self):
        """SIGKILL the only worker of a process lane: the pool is replaced
        once and every later request still compiles."""
        circuits = [benchmark_circuit("ghz", n) for n in range(2, 6)]
        with CompileService(process_backends=("qiskit-o0",), max_workers=1) as service:
            assert service.submit(circuits[0], "qiskit-o0").result(timeout=120).succeeded
            pool = service._lanes["qiskit-o0"].pool
            for pid in list(pool._processes):
                os.kill(pid, signal.SIGKILL)
            for later in circuits[1:]:  # distinct circuits: no cache hits
                result = service.submit(later, "qiskit-o0").result(timeout=120)
                assert result.succeeded, result.error
            lane = service.stats()["lanes"]["qiskit-o0"]
        assert lane["pool_restarts"] == 1
        assert lane["dispatched"] == 4

    def test_stopped_lane_gets_no_fresh_pool(self, circuit):
        """A worker that finds the pool broken during shutdown must not start
        a new pool that nothing would ever shut down."""
        service = CompileService(process_backends=("qiskit-o0",), max_workers=1)
        try:
            assert service.submit(circuit, "qiskit-o0").result(timeout=120).succeeded
            lane = service._lanes["qiskit-o0"]
            pool = lane.pool
        finally:
            service.shutdown(drain=True)
        lane.replace_pool(pool)
        assert lane.pool is pool
        assert lane.pool_restarts == 0


class TestDeadCacheStoreResilience:
    def test_raising_store_degrades_to_uncached_service(self, circuit):
        """A cache store whose server died (every get/put raises) must not
        fail requests, kill lane workers, or leave futures unresolved."""

        class DeadStore:
            def get(self, key):
                raise ConnectionRefusedError("cache server gone")

            def put(self, key, value, cost=None):
                raise ConnectionRefusedError("cache server gone")

            def stats(self):
                return {"entries": 0, "hits": 0, "misses": 0, "evictions": 0, "hit_rate": 0.0}

            def clear(self):
                pass

        backend = RecordingBackend("stress-deadstore")
        with CompileService(store=DeadStore(), max_workers=2) as service:
            for wave in range(2):  # second wave proves the workers survived
                futures = [
                    service.submit(circuit, backend, seed=wave * 4 + i) for i in range(4)
                ]
                for future in futures:
                    assert future.result(timeout=60).succeeded
            stats = service.stats()
        assert stats["completed"] == 8 and stats["failed"] == 0
        assert stats["unfinished"] == 0
        assert len(backend.calls) == 8  # nothing cached, everything compiled


class TestServiceTimeoutRegression:
    def test_timeout_message_carries_queue_depth(self, circuit):
        """ServiceClient.result must raise ServiceTimeout with the queue depth
        at expiry, not a bare futures TimeoutError."""
        backend = GatedBackend("stress-timeout")
        with CompileService(max_workers=1, min_workers=1) as service:
            client = ServiceClient(service)
            blocked = client.submit(circuit, backend, seed=0)
            assert backend.seed0_running.wait(timeout=30)
            queued = client.submit_many([circuit] * 3, backend, seed=1)
            with pytest.raises(ServiceTimeout, match=r"^no result within 0\.2s \(queue depth \d+ at expiry\)$") as excinfo:
                client.result(blocked, timeout=0.2)
            assert excinfo.value.timeout == 0.2
            assert excinfo.value.queue_depth >= 1  # the three queued requests
            # Catchable as either spelling, on every supported Python.
            assert isinstance(excinfo.value, TimeoutError)
            assert isinstance(excinfo.value, FutureTimeoutError)
            backend.release.set()
            assert client.result(blocked, timeout=60).succeeded
            # submit_many coalesced the identical circuits onto one compile.
            for future in queued:
                assert client.result(future, timeout=60).succeeded
