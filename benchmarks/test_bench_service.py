"""Compile-service benchmark: requests/sec under concurrent clients.

Measures the service layer the way a deployment would see it and writes the
numbers to ``benchmarks/results/BENCH_service.json`` (with
``REPRO_BENCH_WRITE=1``):

* **Concurrent clients** — N client threads (N in {1, 4, 8}), each holding a
  :class:`~repro.service.ServiceClient` on one shared
  :class:`~repro.service.CompileService`, submit the same (circuit, backend)
  workload and block on their futures.  Aggregate requests/sec is recorded
  per client count.
* **Cold vs warm shared cache** — each client count runs two waves against
  the same service: the first from an empty cache (compute-bound, overlap
  served by in-flight coalescing), the second re-submitting the identical
  workload (served almost entirely from the shared cache).  The ratio is
  the headline number: it is what a compile-once/reuse-everywhere
  deployment gains from the shared cache.
* **Priority latency** — a saturated single-worker lane fed a mix of
  interactive (priority 5) and batch (priority 0) requests; per-class
  p50/p95 latency quantifies what the QoS scheduler buys an interactive
  caller over FIFO.

``REPRO_BENCH_SMOKE=1`` shrinks the workload so CI keeps the artifact fresh
without burning minutes.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.bench import benchmark_circuit
from repro.service import CompileService, ServiceClient

from conftest import report, write_results

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

BACKENDS = ["qiskit-o1", "tket-o1"]
CLIENT_COUNTS = (1, 4, 8)


def _bench_circuits():
    width = 4 if SMOKE else 6
    return [
        benchmark_circuit("ghz", width),
        benchmark_circuit("qft", width),
        benchmark_circuit("wstate", width),
    ]


def _client_wave(service: CompileService, circuits, n_clients: int) -> dict:
    """N client threads submit the same workload; returns aggregate requests/sec."""
    errors: list[Exception] = []
    barrier = threading.Barrier(n_clients + 1)

    def one_client() -> None:
        try:
            client = ServiceClient(service)
            barrier.wait(timeout=60)
            futures = [
                client.submit(circuit, backend, device="ibmq_washington")
                for circuit in circuits
                for backend in BACKENDS
            ]
            for future in futures:
                result = future.result(timeout=600)
                assert result.succeeded, result.error
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [threading.Thread(target=one_client) for _ in range(n_clients)]
    for thread in threads:
        thread.start()
    barrier.wait(timeout=60)
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    if errors:
        raise errors[0]
    requests = n_clients * len(circuits) * len(BACKENDS)
    return {
        "requests": requests,
        "seconds": round(elapsed, 4),
        "requests_per_sec": round(requests / elapsed, 1),
    }


def _write_results(payload: dict) -> None:
    write_results(
        "BENCH_service.json",
        payload,
        {"smoke": SMOKE, "backends": BACKENDS, "cpu_count": os.cpu_count()},
    )


def test_service_throughput_cold_vs_warm():
    circuits = _bench_circuits()
    clients: dict[str, dict] = {}
    for n_clients in CLIENT_COUNTS:
        with CompileService(max_workers=2) as service:
            cold = _client_wave(service, circuits, n_clients)
            warm = _client_wave(service, circuits, n_clients)
            stats = service.stats()
        clients[str(n_clients)] = {
            "cold": cold,
            "warm": warm,
            "warm_over_cold": round(
                warm["requests_per_sec"] / cold["requests_per_sec"], 2
            ),
            "cache_hits": stats["cache_hits"],
            "coalesced": stats["coalesced"],
            "cache": stats["cache"],
            "mean_latency_seconds": round(stats["latency"]["mean_seconds"], 4),
        }

    _write_results({"clients": clients})
    summary = ", ".join(
        f"n={n}: cold {clients[str(n)]['cold']['requests_per_sec']:.0f} -> "
        f"warm {clients[str(n)]['warm']['requests_per_sec']:.0f} req/s "
        f"(x{clients[str(n)]['warm_over_cold']:.1f})"
        for n in CLIENT_COUNTS
    )
    report(f"\ncompile service: {summary}")

    for n_clients in CLIENT_COUNTS:
        entry = clients[str(n_clients)]
        # Every warm request must be served by the shared cache, and the
        # cold overlap by cache hits or in-flight coalescing.
        workload = n_clients * len(circuits) * len(BACKENDS)
        assert entry["cache_hits"] + entry["coalesced"] >= workload
        if not SMOKE:
            assert entry["warm_over_cold"] >= 2.0, (
                f"warm shared cache delivered only x{entry['warm_over_cold']:.2f} "
                f"over cold compilation at {n_clients} clients"
            )


def test_priority_latency_series():
    """Per-priority-class latency (p50/p95) under a saturated one-worker lane.

    Interleaves batch (priority 0) and interactive (priority 5) requests —
    distinct seeds, so nothing is served by the cache or coalescing — against
    a lane pinned at one worker, and records how much queue-jumping buys the
    interactive class.
    """
    n_per_class = 12 if SMOKE else 40
    circuit = benchmark_circuit("ghz", 4 if SMOKE else 6)
    classes = {"batch": 0, "interactive": 5}
    latencies: dict[str, list[float]] = {name: [] for name in classes}
    lock = threading.Lock()

    with CompileService(max_workers=1, min_workers=1) as service:

        def record(name: str, submitted: float):
            def callback(_future) -> None:
                with lock:
                    latencies[name].append(time.perf_counter() - submitted)

            return callback

        futures = []
        for index in range(n_per_class):
            # Interleave the classes so neither gets a submission-order edge.
            for name, priority in classes.items():
                seed = index * len(classes) + priority  # unique per request
                submitted = time.perf_counter()
                future = service.submit(
                    circuit,
                    "qiskit-o1",
                    device="ibmq_washington",
                    seed=seed,
                    priority=priority,
                )
                future.add_done_callback(record(name, submitted))
                futures.append(future)
        for future in futures:
            assert future.result(timeout=600).succeeded
        stats = service.stats()

    series = {}
    for name in classes:
        samples = np.asarray(latencies[name])
        series[name] = {
            "priority": classes[name],
            "requests": len(samples),
            "p50_seconds": round(float(np.percentile(samples, 50)), 4),
            "p95_seconds": round(float(np.percentile(samples, 95)), 4),
            "mean_seconds": round(float(samples.mean()), 4),
        }
    series["interactive_speedup_p50"] = round(
        series["batch"]["p50_seconds"] / max(series["interactive"]["p50_seconds"], 1e-9), 2
    )
    _write_results({"priority_latency": series})
    report(
        f"\npriority latency (1-worker lane): interactive p50 "
        f"{series['interactive']['p50_seconds']:.3f}s vs batch p50 "
        f"{series['batch']['p50_seconds']:.3f}s "
        f"(x{series['interactive_speedup_p50']:.1f})"
    )

    assert len(latencies["batch"]) == len(latencies["interactive"]) == n_per_class
    assert stats["deadline_exceeded"] == 0
    # The whole point of the priority queue: the interactive class must not
    # wait behind the batch class on a saturated lane.
    assert (
        series["interactive"]["p50_seconds"] <= series["batch"]["p50_seconds"]
    ), "priority scheduling gave interactive requests no latency edge"
