"""HTTP gateway benchmark: requests/sec and per-tenant latency over real HTTP.

Measures the public surface the way an external caller would see it and
writes the numbers to ``benchmarks/results/BENCH_gateway.json`` (with
``REPRO_BENCH_WRITE=1``):

* **Concurrent HTTP clients** — N tenants (N in {1, 4, 8}), each holding a
  :class:`~repro.gateway.GatewayClient` over its own API key against one
  :class:`~repro.gateway.GatewayServer`, submit the same (circuit, backend)
  workload through synchronous ``POST /v1/compile`` calls.  Aggregate
  requests/sec is recorded per client count for a cold and a warm wave,
  plus client-observed per-tenant p50/p95 latency on the warm wave (where
  the HTTP layer, not compilation, dominates).
* **Gateway overhead vs direct ServiceClient** — the identical warmed
  workload through a direct in-process :class:`~repro.service.ServiceClient`
  and through the HTTP gateway; the per-request delta is the cost of the
  JSON/HTTP/auth/fair-share stack.

``REPRO_BENCH_SMOKE=1`` shrinks the workload so CI keeps the artifact fresh
without burning minutes.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from repro.bench import benchmark_circuit
from repro.gateway import GatewayClient, GatewayServer, Tenant
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


def _tenants(n: int) -> list:
    return [Tenant(f"client{i}", f"bench-key-{i}") for i in range(n)]


def _client_wave(gateway: GatewayServer, circuits, n_clients: int) -> dict:
    """N tenants hammer ``POST /v1/compile`` concurrently; returns aggregate
    requests/sec plus per-tenant client-observed latency quantiles."""
    errors: list[Exception] = []
    latencies: dict[str, list[float]] = {f"client{i}": [] for i in range(n_clients)}
    barrier = threading.Barrier(n_clients + 1)

    def one_client(index: int) -> None:
        try:
            client = GatewayClient(gateway.url, api_key=f"bench-key-{index}", timeout=600)
            samples = latencies[f"client{index}"]
            barrier.wait(timeout=60)
            for circuit in circuits:
                for backend in BACKENDS:
                    begin = time.perf_counter()
                    result = client.compile(
                        circuit, backend, device="ibmq_washington", timeout=600
                    )
                    samples.append(time.perf_counter() - begin)
                    assert result.succeeded, result.error
        except Exception as exc:  # noqa: BLE001 - surfaced after join
            errors.append(exc)

    threads = [
        threading.Thread(target=one_client, args=(i,)) for i in range(n_clients)
    ]
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
    per_tenant = {
        name: {
            "p50_seconds": round(float(np.percentile(samples, 50)), 4),
            "p95_seconds": round(float(np.percentile(samples, 95)), 4),
        }
        for name, samples in latencies.items()
    }
    return {
        "requests": requests,
        "seconds": round(elapsed, 4),
        "requests_per_sec": round(requests / elapsed, 1),
        "per_tenant": per_tenant,
    }


def _write_results(payload: dict) -> None:
    write_results(
        "BENCH_gateway.json",
        payload,
        {"smoke": SMOKE, "backends": BACKENDS, "cpu_count": os.cpu_count()},
    )


def test_gateway_throughput():
    circuits = _bench_circuits()
    clients: dict[str, dict] = {}
    for n_clients in CLIENT_COUNTS:
        with CompileService(max_workers=2) as service:
            with GatewayServer(
                service, tenants=_tenants(n_clients), sample_interval=0
            ) as gateway:
                cold = _client_wave(gateway, circuits, n_clients)
                warm = _client_wave(gateway, circuits, n_clients)
                counters = gateway.counters()
            stats = service.stats()
        clients[str(n_clients)] = {
            "cold": cold,
            "warm": warm,
            "warm_over_cold": round(
                warm["requests_per_sec"] / cold["requests_per_sec"], 2
            ),
            "jobs_completed": counters["jobs_completed"],
            "cache_hits": stats["cache_hits"],
            "coalesced": stats["coalesced"],
        }
        # The gateway must not lose or duplicate work at any concurrency.
        workload = 2 * n_clients * len(circuits) * len(BACKENDS)
        assert counters["jobs_submitted"] == workload
        assert counters["jobs_completed"] == workload
        assert counters["rate_limited"] == 0

    _write_results({"clients": clients})
    summary = ", ".join(
        f"n={n}: cold {clients[str(n)]['cold']['requests_per_sec']:.0f} -> "
        f"warm {clients[str(n)]['warm']['requests_per_sec']:.0f} req/s"
        for n in CLIENT_COUNTS
    )
    report(f"\nhttp gateway: {summary}")

    for n_clients in CLIENT_COUNTS:
        entry = clients[str(n_clients)]
        # Warm-wave requests are answered by the shared cache through the
        # whole HTTP stack; each tenant must still see sane quantiles.
        for tenant in entry["warm"]["per_tenant"].values():
            assert tenant["p50_seconds"] <= tenant["p95_seconds"]


def test_gateway_overhead_vs_direct():
    """Same warmed workload via in-process ServiceClient vs the HTTP gateway;
    the per-request delta prices the JSON/HTTP/auth/fair-share stack."""
    repeats = 3 if SMOKE else 10
    circuits = _bench_circuits()
    workload = [(circuit, backend) for circuit in circuits for backend in BACKENDS]

    with CompileService(max_workers=2) as service:
        direct = ServiceClient(service)
        # Warm the shared cache so both paths measure dispatch, not compilation.
        for circuit, backend in workload:
            future = direct.submit(circuit, backend, device="ibmq_washington")
            assert future.result(timeout=600).succeeded

        direct_samples = []
        for _ in range(repeats):
            for circuit, backend in workload:
                begin = time.perf_counter()
                future = direct.submit(circuit, backend, device="ibmq_washington")
                result = future.result(timeout=600)
                direct_samples.append(time.perf_counter() - begin)
                assert result.metadata.get("cached")

        with GatewayServer(
            service, tenants=_tenants(1), sample_interval=0
        ) as gateway:
            client = GatewayClient(gateway.url, api_key="bench-key-0", timeout=600)
            gateway_samples = []
            for _ in range(repeats):
                for circuit, backend in workload:
                    begin = time.perf_counter()
                    result = client.compile(
                        circuit, backend, device="ibmq_washington", timeout=600
                    )
                    gateway_samples.append(time.perf_counter() - begin)
                    assert result.metadata.get("cached")

    direct_mean = float(np.mean(direct_samples))
    gateway_mean = float(np.mean(gateway_samples))
    overhead = {
        "requests": len(gateway_samples),
        "direct_mean_ms": round(direct_mean * 1e3, 3),
        "direct_p95_ms": round(float(np.percentile(direct_samples, 95)) * 1e3, 3),
        "gateway_mean_ms": round(gateway_mean * 1e3, 3),
        "gateway_p95_ms": round(float(np.percentile(gateway_samples, 95)) * 1e3, 3),
        "overhead_ms_per_request": round((gateway_mean - direct_mean) * 1e3, 3),
    }
    _write_results({"overhead_vs_direct": overhead})
    report(
        f"\ngateway overhead: direct {overhead['direct_mean_ms']:.2f}ms vs "
        f"http {overhead['gateway_mean_ms']:.2f}ms per cached request "
        f"(+{overhead['overhead_ms_per_request']:.2f}ms)"
    )

    # The HTTP stack should cost milliseconds, not a second, per request.
    assert overhead["overhead_ms_per_request"] < 1000
