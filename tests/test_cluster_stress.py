"""Multi-process cluster stress tests (``pytest -m stress`` lane).

Where ``test_cluster.py`` exercises the fabric in-process, this suite runs
the real thing: ``python -m repro.service`` hosts in subprocesses, TCP cache
shards with a shared authkey file, request forwarding between processes, and
a rolling restart under sustained load.  The acceptance criteria of the
multi-node fabric are asserted end to end:

* two hosts sharing TCP cache shards see each other's results (cross-host
  cache hits);
* killing one shard mid-load degrades to local compute — no request fails;
* a forwarded request carries priority, deadline, ``pass_overrides`` and
  trace context intact across the process boundary;
* a rolling restart of both hosts under sustained load completes with zero
  lost accepted requests.
"""

from __future__ import annotations

import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.bench import benchmark_circuit
from repro.service import CacheServer, ServiceClient, rolling_restart

pytestmark = pytest.mark.stress

SRC = Path(__file__).resolve().parent.parent / "src"


def _spawn_host(tmp_path, *extra_args: str):
    """Start ``python -m repro.service`` and parse its address + authkey."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--port", "0", *extra_args],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env={"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin", "HOME": str(tmp_path)},
    )
    address = authkey = None
    for _ in range(100):
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
    assert address is not None and authkey is not None, "service host did not start"
    return proc, address, authkey


def _stop_host(proc) -> None:
    proc.terminate()
    try:
        proc.wait(timeout=30)
    except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
        proc.kill()
        proc.wait()
    finally:
        proc.stdout.close()


@pytest.fixture()
def circuit():
    return benchmark_circuit("ghz", 4)


class TestTwoHostsSharedShards:
    def test_cross_host_cache_hits_and_shard_failure(self, circuit, tmp_path):
        """Two subprocess hosts + two TCP shards: shared hits, graceful loss."""
        cache_key = b"stress-cache-key"
        keyfile = tmp_path / "cache.key"
        keyfile.write_text(cache_key.hex())
        shard_a = CacheServer(maxsize=512, address=("127.0.0.1", 0), authkey=cache_key)
        shard_b = CacheServer(maxsize=512, address=("127.0.0.1", 0), authkey=cache_key)
        shard_flags = []
        for shard in (shard_a, shard_b):
            shard_flags += ["--cache-server", f"{shard.address[0]}:{shard.address[1]}"]
        shard_flags += ["--cache-authkey-file", str(keyfile), "--cache-timeout", "5.0"]

        proc_a, addr_a, key_a = _spawn_host(tmp_path, *shard_flags)
        proc_b, addr_b, key_b = _spawn_host(tmp_path, *shard_flags)
        try:
            with ServiceClient(address=addr_a, authkey=key_a) as client_a, ServiceClient(
                address=addr_b, authkey=key_b
            ) as client_b:
                # host A compiles; host B gets the result from the shared shards
                first = client_a.submit(circuit, "qiskit-o0").result(timeout=180)
                assert first.succeeded
                second = client_b.submit(circuit, "qiskit-o0").result(timeout=180)
                assert second.succeeded
                assert second.metadata.get("cached") is True
                stats_b = client_b.stats()
                assert stats_b["cache_hits"] == 1
                assert stats_b["cache"]["sharded"] is True
                assert stats_b["cache"]["shard_count"] == 2
                assert stats_b["cache"]["shards_down"] == 0

                # kill one shard mid-load: compiles keep succeeding and the
                # shard is reported down in stats
                shard_b.shutdown()
                results = [
                    client.submit(circuit, "qiskit-o0", seed=seed).result(timeout=180)
                    for seed in (10, 11)
                    for client in (client_a, client_b)
                ]
                assert all(result.succeeded for result in results)
                degraded = client_a.stats()["cache"]
                assert degraded["shards_down"] == 1
                down_rows = [row for row in degraded["shards"] if row["down"]]
                assert len(down_rows) == 1
        finally:
            _stop_host(proc_a)
            _stop_host(proc_b)
            shard_a.shutdown()
            shard_b.shutdown()


class TestCrossProcessForwarding:
    def test_forwarded_request_parity_across_processes(self, circuit, tmp_path):
        """Router host (subprocess) spills to a peer host (subprocess) with
        priority/deadline/pass_overrides/trace intact."""
        keyfile = tmp_path / "svc.key"
        proc_peer, addr_peer, _ = _spawn_host(tmp_path, "--authkey-file", str(keyfile))
        proc_router, addr_router, authkey = _spawn_host(
            tmp_path,
            "--authkey-file",
            str(keyfile),
            "--peer",
            f"{addr_peer[0]}:{addr_peer[1]}",
        )
        try:
            with ServiceClient(address=addr_router, authkey=authkey) as client:
                # drain the router's local service so everything spills
                client.set_draining(True)
                ctx = {"trace_id": "e" * 32, "span_id": "b" * 16}
                result = client.submit(
                    circuit,
                    "qiskit-o1",
                    device="ibmq_washington",
                    priority=5,
                    pass_overrides={"routing": "tket-routing"},
                    trace=ctx,
                ).result(timeout=180)
                assert result.succeeded
                assert result.metadata.get("forwarded_to") == (
                    f"{addr_peer[0]}:{addr_peer[1]}"
                )
                assert "+routing=tket_routing" in result.backend
                tree = result.metadata["trace"]
                assert tree["name"] == "service.forward"
                assert tree["trace_id"] == ctx["trace_id"]
                hop_children = [child["name"] for child in tree["children"]]
                assert "service.request" in hop_children

                expired = client.submit(circuit, "qiskit-o1", deadline=0).result(
                    timeout=180
                )
                assert not expired.succeeded
                assert expired.metadata.get("deadline_exceeded") is True

                stats = client.stats()
                assert stats["forwarding"]["forwarded"] >= 2
                peer_rows = stats["forwarding"]["peers"]
                assert peer_rows and peer_rows[0]["forwarded"] >= 2
        finally:
            _stop_host(proc_router)
            _stop_host(proc_peer)


class TestRollingRestartUnderLoad:
    N_LOAD_THREADS = 2

    def test_zero_lost_requests_across_full_cluster_restart(self, circuit, tmp_path):
        """Drain → restart → re-admit both hosts while clients keep submitting;
        every accepted request resolves successfully."""
        keyfile = tmp_path / "svc.key"
        procs = {}
        clients = {}
        for name in ("host-a", "host-b"):
            proc, address, authkey = _spawn_host(tmp_path, "--authkey-file", str(keyfile))
            procs[name] = proc
            clients[name] = ServiceClient(address=address, authkey=authkey)
        shared_authkey = bytes.fromhex(keyfile.read_text().strip())

        futures = []
        futures_lock = threading.Lock()
        stop = threading.Event()
        load_errors: list[Exception] = []

        def load_loop(index: int) -> None:
            seed = index * 10_000
            while not stop.is_set():
                # client-side routing: only submit to hosts that are ready,
                # exactly like a load balancer honouring the drain flag
                for name in list(clients):
                    client = clients[name]
                    try:
                        ready = client.health().get("ready")
                    except Exception:  # noqa: BLE001
                        continue  # host mid-restart: a real LB skips it
                    if not ready:
                        continue
                    try:
                        future = client.submit(circuit, "qiskit-o0", seed=seed % 50)
                    except Exception as exc:  # noqa: BLE001 - surfaced after join
                        load_errors.append(exc)
                        stop.set()
                        return
                    with futures_lock:
                        futures.append(future)
                    seed += 1
                time.sleep(0.02)

        threads = [
            threading.Thread(target=load_loop, args=(i,))
            for i in range(self.N_LOAD_THREADS)
        ]
        for thread in threads:
            thread.start()

        def restart(name, handle):
            # rolling_restart quiesced the *server* (unfinished == 0), but the
            # client's waiter thread may not have collected every finished
            # ticket yet — wait for that too before killing the process, or
            # delivered-but-uncollected results would be lost
            assert handle.health()["unfinished"] == 0
            deadline = time.monotonic() + 30
            while time.monotonic() < deadline:
                with handle._pending_lock:
                    outstanding = len(handle._pending)
                if outstanding == 0:
                    break
                time.sleep(0.05)
            else:  # pragma: no cover - would mean lost tickets
                pytest.fail(f"{name}: client tickets never drained")
            _stop_host(procs[name])
            proc, address, _ = _spawn_host(tmp_path, "--authkey-file", str(keyfile))
            procs[name] = proc
            fresh = ServiceClient(address=address, authkey=shared_authkey)
            handle.close()
            clients[name] = fresh  # the load loop starts using the new host
            return fresh

        try:
            # let some load accumulate, then roll the whole cluster
            time.sleep(1.0)
            reports = rolling_restart(
                dict(clients), restart, drain_timeout=120, ready_timeout=60
            )
            time.sleep(1.0)  # post-restart load against the new incarnations
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            assert not load_errors, load_errors[:3]
            assert [report.host for report in reports] == ["host-a", "host-b"]

            # zero lost accepted requests: every future resolves, successfully
            with futures_lock:
                accepted = list(futures)
            assert len(accepted) > 0
            results = [future.result(timeout=180) for future in accepted]
            assert all(result.succeeded for result in results)
            # both new incarnations are serving
            for client in clients.values():
                assert client.health()["ready"] is True
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            for client in clients.values():
                try:
                    client.close()
                except Exception:  # noqa: BLE001
                    pass
            for proc in procs.values():
                _stop_host(proc)
