"""Compile-service demo: many clients, per-backend pools, one shared cache.

Run with::

    python examples/service_demo.py

Starts an in-process :class:`repro.service.CompileService`, has three
concurrent clients submit overlapping work, and prints the service metrics —
the overlap is served by the shared cache and in-flight coalescing instead of
being recompiled.  The second half shows the QoS surface (priorities,
deadlines, lane scale events) and the server-backed shared cache: two
*separate* services (as two processes would) share compilation results
through one :class:`repro.service.CacheServer`.

For a standalone server, run ``python -m repro.service --port 7707`` and
connect with ``ServiceClient(address=("127.0.0.1", 7707), authkey=...)`` —
the client code below is identical in both shapes.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro import benchmark_suite  # noqa: E402
from repro.service import CacheServer, CompileService, ServiceClient  # noqa: E402

BACKENDS = ["qiskit-o3", "tket-o2", "qiskit-o3-iter"]


def run_client(service: CompileService, circuits, label: str) -> None:
    client = ServiceClient(service)
    futures = client.submit_many(circuits, backend=BACKENDS[0], device="ibmq_washington")
    for backend in BACKENDS[1:]:
        futures += client.submit_many(circuits, backend=backend, device="ibmq_washington")
    results = [future.result() for future in futures]
    best = max(results, key=lambda r: r.reward)
    print(
        f"  client {label}: {len(results)} results, "
        f"best {best.reward:.4f} via {best.backend} on {best.circuit.name}"
    )


def main() -> None:
    circuits = benchmark_suite(3, 5, step=1, names=["ghz", "qft", "wstate"])
    print(f"Workload: {len(circuits)} circuits x {len(BACKENDS)} backends x 3 clients")

    print("\n1. One service, three concurrent clients:")
    with CompileService(max_workers=2) as service:
        threads = [
            threading.Thread(target=run_client, args=(service, circuits, str(i)))
            for i in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        stats = service.stats()
        latency = stats["spans"]["service.request"]
        print(
            f"  service: {stats['submitted']} submitted, "
            f"{stats['cache_hits']} cache hits, {stats['coalesced']} coalesced, "
            f"mean latency {latency['sum'] / latency['count'] * 1000:.1f}ms"
        )
        print(f"  lanes: {stats['lanes']}")
        print(f"  cache: {stats['cache']}")

    print("\n2. Quality of service — priorities, deadlines, lanes growing on submit:")
    with CompileService(max_workers=4) as service:
        client = ServiceClient(service)
        batch = client.submit_many(
            circuits, backend="qiskit-o3", device="ibmq_washington", priority=0
        )
        urgent = client.submit(
            circuits[-1], "tket-o2", device="ibmq_washington", priority=10
        )
        cached_only = client.submit(
            circuits[0], "qiskit-o3-iter", device="ibmq_washington", deadline=0
        )
        expired = cached_only.result()
        print(
            f"  deadline=0 request expired without compiling: "
            f"succeeded={expired.succeeded}, "
            f"deadline_exceeded={expired.metadata.get('deadline_exceeded', False)}"
        )
        print(f"  urgent (priority 10) reward: {urgent.result().reward:.4f}")
        for future in batch:
            future.result()
        stats = service.stats()
        scaler = stats["autoscaler"]
        print(
            f"  lanes: {scaler['scale_ups']} scale-ups, "
            f"{scaler['scale_downs']} scale-downs, "
            f"{stats['deadline_exceeded']} deadline expiries"
        )

    print("\n3. Two services sharing one cache server (as two processes would):")
    with CacheServer(maxsize=1024) as server:
        with CompileService(store=server.store()) as first:
            first.submit(circuits[0], "qiskit-o3", device="ibmq_washington").result()
        with CompileService(store=server.store()) as second:
            result = second.submit(circuits[0], "qiskit-o3", device="ibmq_washington").result()
            print(
                f"  second service served from the cache server: "
                f"cached={result.metadata.get('cached', False)}"
            )
        print(f"  cache server counters: {server.stats()}")


if __name__ == "__main__":
    main()
