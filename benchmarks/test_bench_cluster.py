"""Cluster-fabric benchmark: requests/sec and cache hit-rate across hosts.

Measures what the multi-node fabric buys a deployment and writes the numbers
to ``benchmarks/results/BENCH_cluster.json`` (with
``REPRO_BENCH_WRITE=1``):

* **1 vs 2 hosts** — the same workload served by one compile host, then
  round-robined across two hosts that mount the *same* two TCP cache shards.
  Aggregate requests/sec is recorded per host count.
* **Cold vs warm shards** — each host count runs two waves: the first from
  empty shards (compute-bound), the second re-submitting the identical
  workload.  Warm requests are served from the shared shards no matter which
  host they land on — the cross-host hit-rate is the headline number: it is
  what compile-once/reuse-anywhere costs and gains at cluster scale.

``REPRO_BENCH_SMOKE=1`` shrinks the workload so CI keeps the artifact fresh
without burning minutes.
"""

from __future__ import annotations

import os
import time

from repro.bench import benchmark_circuit
from repro.service import (
    CacheServer,
    CompileService,
    ShardedCacheStore,
    SharedCacheStore,
)

from conftest import report, write_results

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")

BACKENDS = ["qiskit-o1", "tket-o1"]
HOST_COUNTS = (1, 2)
N_SHARDS = 2
AUTHKEY = b"bench-cluster-key"


def _bench_circuits():
    width = 4 if SMOKE else 6
    names = ["ghz", "qft"] if SMOKE else ["ghz", "qft", "wstate"]
    return [benchmark_circuit(name, width) for name in names]


def _sharded_store(shards: "list[CacheServer]") -> ShardedCacheStore:
    """A fresh client-side view over the shared TCP shards."""
    return ShardedCacheStore(
        [SharedCacheStore(shard.address, AUTHKEY) for shard in shards]
    )


def _wave(hosts: "list[CompileService]", circuits) -> dict:
    """Round-robin the workload across ``hosts``; returns aggregate req/s."""
    start = time.perf_counter()
    futures = []
    for index, (circuit, backend) in enumerate(
        (circuit, backend) for circuit in circuits for backend in BACKENDS
    ):
        host = hosts[index % len(hosts)]
        futures.append(host.submit(circuit, backend, device="ibmq_washington"))
    for future in futures:
        result = future.result(timeout=600)
        assert result.succeeded, result.error
    elapsed = time.perf_counter() - start
    return {
        "requests": len(futures),
        "seconds": round(elapsed, 4),
        "requests_per_sec": round(len(futures) / elapsed, 1),
    }


def _write_results(payload: dict) -> None:
    write_results(
        "BENCH_cluster.json",
        payload,
        {"smoke": SMOKE, "backends": BACKENDS, "shards": N_SHARDS, "cpu_count": os.cpu_count()},
    )


def test_cluster_throughput_and_hit_rate():
    circuits = _bench_circuits()
    workload = len(circuits) * len(BACKENDS)
    by_hosts: dict[str, dict] = {}

    for n_hosts in HOST_COUNTS:
        shards = [
            CacheServer(maxsize=4096, address=("127.0.0.1", 0), authkey=AUTHKEY)
            for _ in range(N_SHARDS)
        ]
        hosts = [
            CompileService(store=_sharded_store(shards), max_workers=2)
            for _ in range(n_hosts)
        ]
        try:
            cold = _wave(hosts, circuits)
            warm = _wave(hosts, circuits)
            cache = hosts[0].stats()["cache"]
        finally:
            for host in hosts:
                host.shutdown(drain=False)
            for shard in shards:
                shard.shutdown()

        by_hosts[str(n_hosts)] = {
            "cold": cold,
            "warm": warm,
            "warm_over_cold": round(
                warm["requests_per_sec"] / cold["requests_per_sec"], 2
            ),
            "hit_rate": cache["hit_rate"],
            "shard_entries": [row["entries"] for row in cache["shards"]],
            "shards_down": cache["shards_down"],
        }

        # the warm wave must be served by the shared shards — including, at
        # 2 hosts, results the *other* host compiled (cross-host reuse)
        assert cache["hits"] >= workload, cache
        assert cache["shards_down"] == 0
        # the keys must actually spread over the ring, not pile on one shard
        assert sum(1 for row in cache["shards"] if row["entries"]) >= 1

    _write_results({"hosts": by_hosts})
    summary = ", ".join(
        f"hosts={n}: cold {by_hosts[str(n)]['cold']['requests_per_sec']:.0f} -> "
        f"warm {by_hosts[str(n)]['warm']['requests_per_sec']:.0f} req/s "
        f"(hit rate {by_hosts[str(n)]['hit_rate']:.2f})"
        for n in HOST_COUNTS
    )
    report(f"\ncluster fabric ({N_SHARDS} TCP shards): {summary}")

    if not SMOKE:
        for n_hosts in HOST_COUNTS:
            assert by_hosts[str(n_hosts)]["warm_over_cold"] >= 2.0
