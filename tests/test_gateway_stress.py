"""Concurrency stress tests for the HTTP gateway (run via ``pytest -m stress``).

The gateway adds three multi-tenant behaviours on top of the service's QoS
machinery, and each needs hammering from real concurrent HTTP clients:

* **no lost jobs** — N tenants submitting through N threads over HTTP must
  get every job resolved exactly once, with gateway/service accounting
  consistent at the end;
* **rate-limit isolation** — only the over-limit tenant sees 429s (always
  with ``Retry-After``); a well-behaved tenant on the same gateway is
  unaffected and all of its work completes;
* **fair-share ordering** — on a saturated one-worker lane, a weight-3
  tenant's requests are started ~3x as often as a weight-1 tenant's, in the
  deterministic order the stride scheduler promises.

Determinism comes from gated/recording stub backends (the service-stress
idiom): no timing assumptions beyond generous join timeouts.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.api.registry import register_backend, unregister_backend
from repro.api.result import CompilationResult
from repro.bench import benchmark_circuit
from repro.gateway import GatewayClient, GatewayError, GatewayServer, Tenant
from repro.service import CompileService

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
    """Scripted backend recording the seed of every compile call, in order."""

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


@pytest.fixture()
def registered():
    """Register stub backends for the gateway to resolve by name."""
    names = []

    def _register(name, backend):
        register_backend(name, backend, overwrite=True)
        names.append(name)
        return backend

    yield _register
    for name in names:
        unregister_backend(name)


class TestNoLostJobs:
    N_TENANTS = 4
    N_PER_TENANT = 20

    def test_tenant_hammer_resolves_every_job(self, circuit, registered):
        backend = registered("gw-hammer", RecordingBackend("gw-hammer", delay=0.002))
        tenants = [
            Tenant(f"t{i}", f"key-{i}", weight=float(i + 1)) for i in range(self.N_TENANTS)
        ]
        job_ids: list[list[str]] = [[] for _ in range(self.N_TENANTS)]
        errors: list[Exception] = []
        barrier = threading.Barrier(self.N_TENANTS)

        with CompileService(max_workers=3) as service:
            with GatewayServer(service, tenants=tenants, sample_interval=0.1) as gw:

                def tenant_thread(index: int) -> None:
                    try:
                        with GatewayClient(gw.url, api_key=f"key-{index}") as client:
                            barrier.wait(timeout=30)
                            for n in range(self.N_PER_TENANT):
                                # Overlapping seeds on purpose: the service cache
                                # and coalescing must not lose gateway jobs either.
                                job_ids[index].append(
                                    client.submit(
                                        circuit, "gw-hammer", seed=n % 7, priority=n % 3
                                    )
                                )
                    except Exception as exc:  # noqa: BLE001 - surfaced after join
                        errors.append(exc)

                threads = [
                    threading.Thread(target=tenant_thread, args=(i,))
                    for i in range(self.N_TENANTS)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not errors

                total = self.N_TENANTS * self.N_PER_TENANT
                all_ids = [job_id for per_tenant in job_ids for job_id in per_tenant]
                assert len(all_ids) == total
                assert len(set(all_ids)) == total, "duplicate job ids handed out"

                for index, per_tenant in enumerate(job_ids):
                    with GatewayClient(gw.url, api_key=f"key-{index}") as client:
                        for job_id in per_tenant:
                            result = client.result(job_id, timeout=120)
                            assert result.succeeded, result.error

                # Accounting converges: every submitted job completed.
                deadline = time.monotonic() + 30
                while time.monotonic() < deadline:
                    counters = gw.counters()
                    if counters["jobs_completed"] >= total:
                        break
                    time.sleep(0.05)
                counters = gw.counters()
                assert counters["jobs_submitted"] == total
                assert counters["jobs_completed"] == total
                assert counters["rate_limited"] == 0
                assert gw.jobs.stats()["unfinished"] == 0
                stats = service.stats()
                assert stats["submitted"] == total
                assert stats["completed"] == total
                assert stats["failed"] == 0
                # Every tenant is accounted in the fair-share ledger.
                shares = gw.fairshare.stats()["tenants"]
                for i in range(self.N_TENANTS):
                    assert shares[f"t{i}"]["requests"] == self.N_PER_TENANT


class TestRateLimitIsolation:
    def test_429_only_for_over_limit_tenant(self, circuit, registered):
        registered("gw-limit", RecordingBackend("gw-limit", delay=0.001))
        tenants = [
            Tenant("greedy", "greedy-key", rate=3.0, burst=3),
            Tenant("polite", "polite-key"),  # unlimited
        ]
        outcomes: dict[str, list] = {"greedy": [], "polite": []}
        polite_jobs: list[str] = []
        errors: list[Exception] = []
        barrier = threading.Barrier(2)

        with CompileService(max_workers=2) as service:
            with GatewayServer(service, tenants=tenants, sample_interval=0) as gw:

                def hammer(name: str) -> None:
                    try:
                        with GatewayClient(gw.url, api_key=f"{name}-key") as client:
                            barrier.wait(timeout=30)
                            for n in range(15):
                                try:
                                    job_id = client.submit(circuit, "gw-limit", seed=1000 + n)
                                    outcomes[name].append("accepted")
                                    if name == "polite":
                                        polite_jobs.append(job_id)
                                except GatewayError as exc:
                                    outcomes[name].append(exc)
                    except Exception as exc:  # noqa: BLE001 - surfaced after join
                        errors.append(exc)

                threads = [
                    threading.Thread(target=hammer, args=(name,))
                    for name in ("greedy", "polite")
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not errors

                greedy_429 = [o for o in outcomes["greedy"] if isinstance(o, GatewayError)]
                assert greedy_429, "greedy tenant burst 15 into a 3-burst bucket with no 429"
                for error in greedy_429:
                    assert error.status == 429
                    assert error.error_type == "rate_limited"
                    assert error.retry_after is not None and error.retry_after >= 1

                # The polite tenant is completely unaffected.
                assert all(o == "accepted" for o in outcomes["polite"])
                with GatewayClient(gw.url, api_key="polite-key") as client:
                    for job_id in polite_jobs:
                        assert client.result(job_id, timeout=60).succeeded

                tenant_stats = gw.registry.stats()
                assert tenant_stats["greedy"]["rate_limited"] == len(greedy_429)
                assert tenant_stats["polite"]["rate_limited"] == 0
                # 429d requests never became jobs or touched the service.
                accepted = len([o for o in outcomes["greedy"] if o == "accepted"]) + len(
                    polite_jobs
                )
                assert gw.counters()["jobs_submitted"] == accepted


class TestFairShareOrdering:
    N_PER_TENANT = 12

    def test_weighted_ordering_on_saturated_lane(self, circuit, registered):
        """Weight-3 'heavy' vs weight-1 'light' on a one-worker lane: requests
        must start in stride order (~3 heavy per light), deterministically."""
        backend = registered("gw-fair", GatedBackend("gw-fair"))
        tenants = [
            Tenant("heavy", "heavy-key", weight=3.0),
            Tenant("light", "light-key", weight=1.0),
            Tenant("ops", "ops-key", admin=True),
        ]
        with CompileService(max_workers=1, min_workers=1) as service:
            with (
                GatewayServer(service, tenants=tenants, sample_interval=0) as gw,
                GatewayClient(gw.url, api_key="ops-key") as ops,
                GatewayClient(gw.url, api_key="heavy-key") as heavy,
                GatewayClient(gw.url, api_key="light-key") as light,
            ):
                # Saturate the lane: seed 0 blocks the only worker until released.
                blocker = ops.submit(circuit, "gw-fair", seed=0)
                assert backend.seed0_running.wait(timeout=60)

                # Both tenants queue their work while the worker is blocked;
                # seeds encode the tenant (1xx heavy, 2xx light).  Jobs are
                # tenant-scoped, so each client fetches only its own.
                ids = []
                for n in range(self.N_PER_TENANT):
                    ids.append((heavy, heavy.submit(circuit, "gw-fair", seed=100 + n)))
                    ids.append((light, light.submit(circuit, "gw-fair", seed=200 + n)))
                depth = service.stats()["queue_depth"]
                assert depth >= 2 * self.N_PER_TENANT, f"lane not saturated (depth {depth})"

                backend.release.set()
                for client, job_id in ids:
                    assert client.result(job_id, timeout=120).succeeded
                assert ops.result(blocker, timeout=60).succeeded

        # The backend recorded the exact start order.  Drop the blocker and
        # map seeds back to tenants.
        started = [seed for seed in backend.calls if seed != 0]
        assert len(started) == 2 * self.N_PER_TENANT
        tenant_order = ["heavy" if seed < 200 else "light" for seed in started]

        # Stride order with weights 3:1 —  among any early window the heavy
        # tenant holds ~3/4 of the slots; exact prefix: H L H H [H L] ...
        first_eight = tenant_order[:8]
        assert first_eight.count("heavy") >= 5, f"first eight started: {first_eight}"
        # The heavy tenant's mean start position beats the light tenant's.
        heavy_positions = [i for i, name in enumerate(tenant_order) if name == "heavy"]
        light_positions = [i for i, name in enumerate(tenant_order) if name == "light"]
        assert sum(heavy_positions) / len(heavy_positions) < sum(light_positions) / len(
            light_positions
        )
        # And no request was lost along the way.
        assert sorted(started) == sorted(
            list(range(100, 100 + self.N_PER_TENANT))
            + list(range(200, 200 + self.N_PER_TENANT))
        )
