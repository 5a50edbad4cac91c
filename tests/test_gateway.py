"""Functional tests for the HTTP/JSON gateway subsystem."""

from __future__ import annotations

import contextlib
import http.client
import json
import socket
import time
import urllib.request
from concurrent.futures import Future

import pytest

from repro.bench import benchmark_circuit
from repro.circuit import qasm, to_qasm
from repro.gateway import (
    FairShareScheduler,
    GatewayClient,
    GatewayError,
    GatewayServer,
    Tenant,
    TenantRegistry,
    TokenBucket,
)
from repro.gateway.auth import AuthError, RateLimited
from repro.gateway.metrics import quantile
from repro.obs import span_histograms
from repro.service import CompileService


@pytest.fixture(scope="module")
def ghz3():
    return benchmark_circuit("ghz", 3)


@pytest.fixture()
def service():
    with CompileService(max_workers=2) as svc:
        yield svc


TENANTS = [
    Tenant("alice", "alice-key", weight=4, rate=100.0, burst=100),
    Tenant("bob", "bob-key", weight=1, rate=100.0, burst=100),
    Tenant("ops", "ops-key", admin=True),
]


@pytest.fixture()
def gateway(service):
    with GatewayServer(service, tenants=list(TENANTS), sample_interval=0.2) as gw:
        yield gw


@pytest.fixture()
def connect():
    """Open ``GatewayClient``s that are closed when the test ends."""
    with contextlib.ExitStack() as stack:
        yield lambda url, **kwargs: stack.enter_context(GatewayClient(url, **kwargs))


class TestAuthUnit:
    def test_registry_rejects_duplicate_names_and_keys(self):
        with pytest.raises(ValueError, match="duplicate tenant"):
            TenantRegistry([Tenant("a", "k1"), Tenant("a", "k2")])
        with pytest.raises(ValueError, match="reuses the API key"):
            TenantRegistry([Tenant("a", "k1"), Tenant("b", "k1")])

    def test_authenticate_unknown_key(self):
        registry = TenantRegistry([Tenant("a", "k1")])
        assert registry.authenticate("k1").name == "a"
        with pytest.raises(AuthError):
            registry.authenticate("k2")
        with pytest.raises(AuthError):
            registry.authenticate(None)

    def test_keyfile_round_trip(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(
            json.dumps(
                {
                    "tenants": [
                        {"name": "a", "key": "ka", "weight": 2, "rate": 5, "burst": 3},
                        {"name": "ops", "key": "kops", "admin": True},
                    ]
                }
            )
        )
        registry = TenantRegistry.from_file(path)
        assert registry.authenticate("ka").weight == 2
        assert registry.authenticate("kops").admin

    def test_keyfile_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "tenants.json"
        path.write_text(json.dumps([{"name": "a", "key": "k", "color": "red"}]))
        with pytest.raises(ValueError, match="unknown keyfile fields"):
            TenantRegistry.from_file(path)

    def test_token_bucket_drains_and_refills(self):
        clock = [0.0]
        bucket = TokenBucket(rate=10.0, burst=2, clock=lambda: clock[0])
        assert bucket.acquire() == 0.0
        assert bucket.acquire() == 0.0
        retry = bucket.acquire()
        assert retry > 0.0
        clock[0] += retry  # exactly one token refilled
        assert bucket.acquire() == 0.0

    def test_rate_limited_carries_retry_after(self):
        registry = TenantRegistry([Tenant("a", "k", rate=1.0, burst=1)])
        tenant = registry.authenticate("k")
        registry.check_rate(tenant)
        with pytest.raises(RateLimited) as excinfo:
            registry.check_rate(tenant)
        assert excinfo.value.retry_after > 0
        assert int(excinfo.value.header_value()) >= 1


class TestFairShareUnit:
    def test_heavy_tenant_gets_more_early_slots(self):
        sched = FairShareScheduler()
        order = []
        for _ in range(12):
            order.append(("heavy", sched.next_priority("heavy", 3.0)))
            order.append(("light", sched.next_priority("light", 1.0)))
        ranked = sorted(order, key=lambda pair: -pair[1])
        first_eight = [name for name, _ in ranked[:8]]
        assert first_eight.count("heavy") >= 5

    def test_equal_weights_alternate(self):
        sched = FairShareScheduler()
        a = [sched.next_priority("a", 1.0) for _ in range(3)]
        b = [sched.next_priority("b", 1.0) for _ in range(3)]
        # Same weights, same arrival counts: same priorities step for step.
        assert a == b

    def test_newcomer_overtakes_queued_backlog(self):
        # A hot tenant pre-queues a deep backlog; nothing has completed, so
        # the system clock is still 0 and a newcomer starts at the front,
        # not behind 100 queued requests — that is the no-starvation core.
        sched = FairShareScheduler()
        backlog = [sched.next_priority("hot", 1.0) for _ in range(100)]
        newcomer = sched.next_priority("fresh", 1.0)
        assert newcomer > min(backlog)
        assert newcomer == backlog[0]  # ties with the hot tenant's *first*

    def test_returning_idler_banks_no_credit(self):
        sched = FairShareScheduler()
        tickets = [sched.next_ticket("busy", 1.0) for _ in range(10)]
        for _priority, vtime in tickets:
            sched.complete(vtime)  # all of busy's work was served
        late = sched.next_priority("late", 1.0)
        busy_next = sched.next_priority("busy", 1.0)
        # The idler rejoins at the system clock (~vtime 9), tying with the
        # busy tenant's next request instead of jumping ahead of it by 10.
        assert abs(late - busy_next) <= sched.RESOLUTION
        assert late <= -9 * sched.RESOLUTION

    def test_hint_breaks_ties_but_not_shares(self):
        sched = FairShareScheduler()
        plain = sched.next_priority("a", 1.0, hint=0)
        hinted = sched.next_priority("b", 1.0, hint=3)
        assert hinted > plain  # same vtime, hint wins the tie
        far_behind = sched.next_priority("b", 1.0, hint=5)
        assert far_behind < plain  # a full share step dominates any hint

    def test_quantile_helper(self):
        assert quantile([], 0.5) == 0.0
        assert quantile([1.0], 0.95) == 1.0
        assert quantile([1, 2, 3, 4, 5], 0.5) == 3


class TestJobClock:
    """Latency is measured on the monotonic clock, not wall-clock stamps.

    Regression: the gateway's done callback used to compute
    ``time.time() - job.created_at``, which goes negative (and poisons the
    latency histograms) when NTP steps the wall clock between creation and
    completion.
    """

    @staticmethod
    def _job():
        from concurrent.futures import Future

        from repro.gateway.jobs import Job

        return Job("job-test", "alice", "qiskit-o0", Future())

    @staticmethod
    def _result():
        from types import SimpleNamespace

        return SimpleNamespace(succeeded=True, error=None, metadata={})

    def test_elapsed_survives_wall_clock_step(self):
        job = self._job()
        # simulate NTP stepping the wall clock back one hour mid-request:
        # the creation stamp now sits in the future relative to time.time()
        job.created_at = time.time() + 3600.0
        job.finish(self._result())
        assert job.finished_at - job.created_at < 0  # wall-clock math is wrong
        assert 0.0 <= job.elapsed() < 60.0  # monotonic measurement is not
        assert 0.0 <= job.describe()["wall_seconds"] < 60.0

    def test_elapsed_of_unfinished_job_tracks_now(self):
        job = self._job()
        first = job.elapsed()
        time.sleep(0.01)
        assert job.elapsed() >= first >= 0.0

    def test_wall_stamps_remain_for_display(self):
        job = self._job()
        job.finish(self._result())
        described = job.describe()
        assert described["created_at"] == job.created_at
        assert described["finished_at"] == job.finished_at


class TestGatewayHTTP:
    def test_sync_compile_round_trip(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        result = client.compile(ghz3, backend="qiskit-o1", device="ibmq_washington")
        assert result.succeeded
        assert result.backend == "qiskit-o1"
        assert result.device is not None and result.device.name == "ibmq_washington"
        assert result.circuit.num_qubits >= 3
        # The repeat is answered by the service cache, and says so over HTTP.
        again = client.compile(ghz3, backend="qiskit-o1", device="ibmq_washington")
        assert again.metadata.get("cached") is True
        assert again.reward == pytest.approx(result.reward)

    def test_warm_compile_encodes_no_qasm(self, gateway, connect, monkeypatch):
        """The client's circuit and the cached result each cost one encode."""
        encodes = []
        encode = qasm._encode
        monkeypatch.setattr(
            qasm, "_encode", lambda circuit: encodes.append(circuit) or encode(circuit)
        )
        circuit = benchmark_circuit("qft", 3)
        client = connect(gateway.url, api_key="alice-key")
        first = client.compile(circuit, backend="qiskit-o1", device="ibmq_montreal", seed=5)
        assert first.succeeded and len(encodes) == 2
        for _ in range(3):
            again = client.compile(circuit, backend="qiskit-o1", device="ibmq_montreal", seed=5)
            assert again.metadata.get("cached") is True
            assert again.circuit == first.circuit
        assert len(encodes) == 2

    def test_compile_accepts_raw_qasm(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        result = client.compile(to_qasm(ghz3), backend="qiskit-o0")
        assert result.succeeded

    def test_async_submit_poll_result(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        job_id = client.submit(ghz3, backend="qiskit-o1", device="ibmq_washington", seed=3)
        result = client.result(job_id, timeout=120)
        assert result.succeeded
        job = client.job(job_id)
        assert job["state"] == "done"
        assert job["tenant"] == "alice"
        assert job["wall_seconds"] >= 0

    def test_sse_event_stream(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        job_id = client.submit(ghz3, backend="tket-o1", device="ibmq_washington", seed=11)
        events = list(client.events(job_id, timeout=120))
        names = [event["event"] for event in events]
        assert names[0] == "queued"
        assert names[-1] == "done"
        done = events[-1]
        assert done["succeeded"] is True
        assert done["job_id"] == job_id

    def test_missing_api_key_is_401(self, gateway, ghz3, connect):
        client = connect(gateway.url)
        with pytest.raises(GatewayError) as excinfo:
            client.compile(ghz3, backend="qiskit-o0")
        assert excinfo.value.status == 401
        assert excinfo.value.error_type == "auth_error"

    def test_bad_qasm_is_400_qasm_error(self, gateway, connect):
        client = connect(gateway.url, api_key="alice-key")
        bad = 'OPENQASM 2.0;\nqreg q[1];\ncreg c[1];\nh q[5];\n'
        with pytest.raises(GatewayError) as excinfo:
            client.compile(bad, backend="qiskit-o0")
        assert excinfo.value.status == 400
        assert excinfo.value.error_type == "qasm_error"
        assert "out of range" in str(excinfo.value)

    def test_unknown_backend_is_400(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        with pytest.raises(GatewayError) as excinfo:
            client.compile(ghz3, backend="no-such-compiler")
        assert excinfo.value.status == 400

    def test_unknown_job_and_foreign_job_are_404(self, gateway, ghz3, connect):
        alice = connect(gateway.url, api_key="alice-key")
        bob = connect(gateway.url, api_key="bob-key")
        job_id = alice.submit(ghz3, backend="qiskit-o0", seed=21)
        with pytest.raises(GatewayError) as excinfo:
            bob.job(job_id)
        assert excinfo.value.status == 404
        with pytest.raises(GatewayError) as excinfo:
            alice.job("job-999-deadbeef")
        assert excinfo.value.status == 404
        # Admins see every tenant's jobs.
        ops = connect(gateway.url, api_key="ops-key")
        assert ops.job(job_id)["tenant"] == "alice"

    def test_rate_limit_is_429_with_retry_after(self, service, ghz3, connect):
        tenants = [Tenant("tiny", "tiny-key", rate=1.0, burst=2)]
        with GatewayServer(service, tenants=tenants, sample_interval=0) as gw:
            client = connect(gw.url, api_key="tiny-key")
            outcomes = []
            for seed in range(4):
                try:
                    client.submit(ghz3, backend="qiskit-o0", seed=seed)
                    outcomes.append("accepted")
                except GatewayError as exc:
                    outcomes.append((exc.status, exc.error_type))
                    assert exc.retry_after is not None and exc.retry_after >= 1
            assert outcomes[:2] == ["accepted", "accepted"]
            assert (429, "rate_limited") in outcomes

    def test_stats_and_metrics_endpoints(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        client.compile(ghz3, backend="qiskit-o1", device="ibmq_washington", priority=2)
        stats = client.stats()
        assert stats["gateway"]["counters"]["jobs_submitted"] >= 1
        assert stats["service"]["submitted"] >= 1
        assert stats["tenants"]["alice"]["served"] >= 1
        assert "tenant:alice" in stats["gateway"]["latency"]
        assert "priority:2" in stats["gateway"]["latency"]
        assert stats["gateway"]["fair_share"]["tenants"]["alice"]["requests"] >= 1
        # The sampler fills the ring-buffer time series.
        gateway.sampler.sample_once()
        series = client.stats()["timeseries"]
        assert series and {"time", "queue_depth", "cache_hit_rate"} <= set(series[-1])

        text = client.metrics()
        assert "# TYPE repro_service_queue_depth gauge" in text
        assert "repro_service_requests_total" in text
        assert 'repro_gateway_tenant_served_total{tenant="alice"}' in text
        assert "# TYPE repro_span_duration_seconds histogram" in text
        assert "repro_gateway_ready 1" in text

    def test_healthz_ok(self, gateway, connect):
        client = connect(gateway.url)
        health = client.healthz()  # healthz needs no auth
        assert health["status"] == "ok"
        assert health["ready"] is True
        assert health["service"]["status"] == "ok"

    def test_drain_flips_healthz_and_refuses_work(self, service, ghz3, connect):
        tenants = [Tenant("a", "ka"), Tenant("ops", "kops", admin=True)]
        with GatewayServer(service, tenants=tenants, sample_interval=0) as gw:
            alice = connect(gw.url, api_key="ka")
            ops = connect(gw.url, api_key="kops")
            # Non-admins may not drain.
            with pytest.raises(GatewayError) as excinfo:
                alice.drain()
            assert excinfo.value.status == 403
            # Queue work, then drain: queued work finishes first.
            job_id = alice.submit(ghz3, backend="qiskit-o1", device="ibmq_washington", seed=31)
            status = ops.drain(grace=60)
            assert status["status"] in ("draining", "drained")
            deadline = time.monotonic() + 60
            while gw.state != "drained" and time.monotonic() < deadline:
                time.sleep(0.05)
            assert gw.state == "drained"
            # The queued job completed rather than being dropped.
            assert alice.result(job_id, timeout=60).succeeded
            health = alice.healthz()
            assert health["ready"] is False
            assert health["status"] == "drained"
            with pytest.raises(GatewayError) as excinfo:
                alice.compile(ghz3, backend="qiskit-o0", seed=99)
            assert excinfo.value.status == 503

    def test_open_mode_needs_no_key(self, service, ghz3, connect):
        with GatewayServer(service, sample_interval=0) as gw:
            client = connect(gw.url)
            assert client.compile(ghz3, backend="qiskit-o0").succeeded
            assert "tenants" not in client.stats()

    def test_not_found_route(self, gateway, connect):
        with pytest.raises(GatewayError) as excinfo:
            connect(gateway.url, api_key="alice-key")._request("GET", "/v2/nope")
        assert excinfo.value.status == 404

    def test_bearer_token_auth_works(self, gateway):
        request = urllib.request.Request(gateway.url + "/v1/stats")
        request.add_header("Authorization", "Bearer alice-key")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.status == 200

    def test_deadline_zero_gives_structured_failure(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        result = client.compile(ghz3, backend="qiskit-o1", seed=1234, deadline=0)
        assert not result.succeeded
        assert result.metadata.get("deadline_exceeded") is True


class TestPassCatalogAndOverrides:
    def test_passes_endpoint_serves_the_catalog(self, gateway, connect):
        client = connect(gateway.url, api_key="alice-key")
        catalog = client.passes()
        names = {entry["name"] for entry in catalog}
        assert {"sabre_swap", "tket_routing", "basis_translator"} <= names
        assert all(
            set(entry) == {"name", "role", "origin", "requires_device"}
            for entry in catalog
        )

    def test_passes_endpoint_role_filter(self, gateway, connect):
        client = connect(gateway.url, api_key="alice-key")
        routers = client.passes(role="routing")
        assert routers and all(entry["role"] == "routing" for entry in routers)
        with pytest.raises(GatewayError) as excinfo:
            client.passes(role="warp")
        assert excinfo.value.status == 400

    def test_compile_payload_pass_overrides(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        result = client.compile(
            ghz3,
            backend="qiskit-o3",
            pass_overrides={"routing": "tket-routing"},
        )
        assert result.succeeded
        assert "tket_routing" in result.actions
        assert "+routing=tket_routing" in result.backend

    def test_bad_override_is_a_400(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        with pytest.raises(GatewayError) as excinfo:
            client.compile(ghz3, backend="qiskit-o3", pass_overrides={"routing": "warp"})
        assert excinfo.value.status == 400
        assert "warp" in str(excinfo.value)

    def test_non_object_overrides_is_a_400(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        payload = {"qasm": to_qasm(ghz3), "backend": "qiskit-o3", "pass_overrides": ["routing"]}
        with pytest.raises(GatewayError) as excinfo:
            client._request("POST", "/v1/compile", payload)
        assert excinfo.value.status == 400


class TestObservabilityHTTP:
    def test_trace_id_round_trips_to_a_full_span_tree(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        job_id = client.submit(
            ghz3, backend="qiskit-o1", device="ibmq_washington",
            trace_id="trace-gw-0001",
        )
        payload = client.trace(job_id, timeout=60)
        assert payload["job_id"] == job_id
        assert payload["trace_id"] == "trace-gw-0001"
        tree = payload["trace"]
        assert tree["name"] == "gateway.request"
        assert tree["attrs"]["tenant"] == "alice"
        names, stack = set(), [tree]
        while stack:
            node = stack.pop()
            assert node["trace_id"] == "trace-gw-0001"
            names.add(node["name"])
            stack.extend(node.get("children") or [])
        assert {"service.request", "queue.wait", "lane.execute"} <= names
        assert any(name.startswith("stage.") for name in names)
        # The job description carries the id too.
        assert client.job(job_id)["trace_id"] == "trace-gw-0001"

    def test_every_response_echoes_a_trace_id(self, gateway):
        request = urllib.request.Request(gateway.url + "/healthz")
        request.add_header("X-Repro-Trace-Id", "trace-echo-42")
        with urllib.request.urlopen(request, timeout=30) as response:
            assert response.headers["X-Repro-Trace-Id"] == "trace-echo-42"
        # A malformed inbound id is replaced with a freshly minted one, never
        # echoed back verbatim.
        request = urllib.request.Request(gateway.url + "/healthz")
        request.add_header("X-Repro-Trace-Id", "bad id with spaces")
        with urllib.request.urlopen(request, timeout=30) as response:
            echoed = response.headers["X-Repro-Trace-Id"]
            assert echoed and echoed != "bad id with spaces"

    def test_dashboard_is_self_contained(self, gateway):
        # No auth required for the static shell: its JS authenticates the
        # /v1/stats polls itself.
        with urllib.request.urlopen(gateway.url + "/dashboard", timeout=30) as response:
            assert response.status == 200
            assert response.headers["Content-Type"].startswith("text/html")
            html = response.read().decode()
        # Zero external asset fetches: every reference is same-origin.
        assert "http://" not in html and "https://" not in html
        assert "/v1/stats" in html
        assert "<script>" in html and "<style>" in html

    def test_latency_histogram_in_metrics(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        client.compile(ghz3, backend="qiskit-o0", device="ibmq_washington")
        text = client.metrics()
        assert "# TYPE repro_gateway_request_latency_seconds histogram" in text
        inf_counts, totals = {}, {}
        for line in text.splitlines():
            if line.startswith("repro_gateway_request_latency_seconds_bucket") and 'le="+Inf"' in line:
                label = line.split('label="')[1].split('"')[0]
                inf_counts[label] = float(line.rsplit(" ", 1)[1])
            if line.startswith("repro_gateway_request_latency_seconds_count"):
                label = line.split('label="')[1].split('"')[0]
                totals[label] = float(line.rsplit(" ", 1)[1])
        assert "tenant:alice" in inf_counts
        assert inf_counts == totals  # the +Inf bucket is the series total
        # Only the aggregatable histogram is exported; the windowed
        # per-tenant quantiles stay in /v1/stats for the dashboard.
        assert 'quantile="' not in text
        assert client.stats()["gateway"]["latency"]["tenant:alice"]["p95_seconds"] > 0

    @pytest.mark.parametrize("process_lane", [False, True], ids=["thread", "process"])
    def test_stage_histograms_count_every_compile(self, ghz3, process_lane, connect):
        """No opt-in: /metrics counts one stage.routing per preset compile."""
        lanes = {"process_backends": ("qiskit-o0",)} if process_lane else {}
        span_histograms().reset()  # a fresh process's sink
        with CompileService(max_workers=1, **lanes) as service:
            with GatewayServer(service, sample_interval=0) as gw:
                client = connect(gw.url)
                for seed in range(3):
                    assert client.compile(ghz3, backend="qiskit-o0", seed=seed).succeeded
                text = client.metrics()
        assert 'repro_span_duration_seconds_count{span="stage.routing"} 3' in text.splitlines()

    def test_slow_request_log_feeds_stats(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        client.compile(ghz3, backend="qiskit-o0", device="ibmq_washington")
        slow = client.stats()["gateway"]["slow_requests"]
        assert slow, "completed request missing from the slow-request log"
        entry = slow[0]
        assert entry["trace_id"] and entry["tenant"] == "alice"
        assert entry["status"] == "ok"
        rows = entry["breakdown"]
        assert rows and rows[0]["name"] == "gateway.request"
        assert {"service.request", "queue.wait"} <= {row["name"] for row in rows}

    def test_sse_events_carry_the_trace_id(self, gateway, ghz3, connect):
        client = connect(gateway.url, api_key="alice-key")
        job_id = client.submit(ghz3, backend="qiskit-o0", trace_id="trace-sse-77")
        events = list(client.events(job_id, timeout=60))
        assert events[-1]["event"] == "done"
        assert all(event["trace_id"] == "trace-sse-77" for event in events)


def _raw_response(gateway, request: bytes) -> tuple:
    """Send raw bytes; read until the server closes: ``(status, headers, body)``."""
    with socket.create_connection(gateway.address, timeout=10) as sock:
        sock.sendall(request)
        data = b""
        while chunk := sock.recv(65536):  # a timeout here: the server kept it open
            data += chunk
    head, _, body = data.partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode().split("\r\n")
    headers = dict(line.split(": ", 1) for line in header_lines)
    return int(status_line.split()[1]), headers, json.loads(body)


class TestKeepAlive:
    def test_sequential_requests_reuse_one_fast_connection(self, gateway, connect):
        client = connect(gateway.url)
        sockets, seconds = set(), []
        for _ in range(20):
            begin = time.perf_counter()
            assert client.healthz()["ready"]
            seconds.append(time.perf_counter() - begin)
            sockets.add(client._local.connection.sock)
        assert len(sockets) == 1 and None not in sockets
        # Nagle's algorithm against the client's delayed ACK stalls a
        # kept-alive response for ~40 ms.
        assert sorted(seconds)[len(seconds) // 2] < 0.015
        client.close()
        assert client._local.connection.sock is None

    def test_connection_closed_while_idle_is_resent_once(self, gateway, monkeypatch, connect):
        monkeypatch.setattr("repro.gateway.server._Handler.timeout", 0.2)
        client = connect(gateway.url)
        assert client.healthz()["ready"]
        first = client._local.connection.sock
        time.sleep(0.6)  # the server has closed the idle connection by now
        assert client.healthz()["ready"]
        assert client._local.connection.sock not in (None, first)

    @pytest.mark.parametrize("status", [401, 413, 429])
    def test_connection_survives_an_early_error(self, service, ghz3, monkeypatch, status):
        """An error sent before the body was read must not leave it on the wire."""
        tenants = [Tenant("tiny", "tiny-key", rate=0.01, burst=1)]
        body = json.dumps({"qasm": to_qasm(ghz3), "backend": "qiskit-o0"}).encode()
        headers = {"X-API-Key": "tiny-key"}
        with GatewayServer(service, tenants=tenants, sample_interval=0) as gw:
            connection = http.client.HTTPConnection(*gw.address, timeout=10)
            if status == 401:
                connection.request("POST", "/v1/compile", body, {"X-API-Key": "wrong"})
            elif status == 429:
                connection.request("POST", "/v1/compile?mode=async", body, headers)
                assert connection.getresponse().read()
                connection.request("POST", "/v1/compile?mode=async", body, headers)
            else:
                # Declared too large: refused unread, so the connection closes.
                # (Only the headers go out, so no unread byte resets the close.)
                monkeypatch.setattr("repro.gateway.server.MAX_BODY_BYTES", 16)
                connection.request(
                    "POST", "/v1/compile", headers={**headers, "Content-Length": "17"}
                )
            sock = connection.sock
            response = connection.getresponse()
            assert response.status == status
            response.read()
            connection.request("GET", "/v1/stats", headers=headers)
            response = connection.getresponse()
            assert response.status == 200
            assert json.loads(response.read())["gateway"]["name"] == gw.name
            # Only the refused-unread body costs the connection.
            assert (connection.sock is sock) == (status != 413)
            connection.close()

    @pytest.mark.parametrize("length", ["-1", "abc"])
    def test_bad_content_length_is_a_400_that_closes(self, gateway, length):
        status, headers, body = _raw_response(
            gateway,
            b"POST /v1/compile HTTP/1.1\r\nHost: gw\r\nX-API-Key: alice-key\r\n"
            + f"Content-Length: {length}\r\n\r\n".encode(),
        )
        assert status == 400
        assert headers["Connection"] == "close"
        assert body["error"]["type"] == "bad_request"
        assert "Content-Length" in body["error"]["message"]

    def test_close_shuts_kept_alive_connections(self, service, connect):
        gw = GatewayServer(service, sample_interval=0)
        client = connect(gw.url)
        connection = http.client.HTTPConnection(*gw.address, timeout=10)
        try:
            assert client.healthz()["ready"]
            connection.request("GET", "/healthz")
            assert connection.getresponse().read()
        finally:
            gw.close()
        with pytest.raises(OSError):
            connection.request("GET", "/healthz")
            connection.getresponse()
        with pytest.raises(OSError):
            client.healthz()

    def test_close_unsubscribes_from_the_service(self, service, ghz3, monkeypatch):
        """A closed gateway is dropped from the service's observers, so later
        requests neither reach it nor keep it alive."""
        started: list = []
        monkeypatch.setattr(
            GatewayServer, "_on_request_started", lambda gw, request: started.append(gw)
        )
        gw = GatewayServer(service, sample_interval=0)
        assert service.submit(ghz3, "qiskit-o0", seed=1).result(timeout=60).succeeded
        assert started == [gw]
        gw.close()
        assert service._observers == ()
        assert service.submit(ghz3, "qiskit-o0", seed=2).result(timeout=60).succeeded
        assert started == [gw]


class _RaisingService:
    """A service stand-in whose futures fail instead of holding a result."""

    def stats(self):
        return {}

    def add_observer(self, fn):
        pass

    def remove_observer(self, fn):
        pass

    def submit(self, *args, **kwargs):
        future = Future()
        future.set_exception(RuntimeError("lane exploded"))
        return future


def test_failed_future_result_carries_the_submitted_circuit(ghz3):
    with GatewayServer(_RaisingService(), sample_interval=0) as gw:
        job = gw.submit(
            gw.authenticate(None), {"qasm": to_qasm(ghz3), "name": "my-ghz"}, "async"
        )
    assert job.done
    assert not job.result.succeeded
    assert "lane exploded" in job.result.error
    assert job.result.circuit.name == "my-ghz"
    assert job.result.circuit.num_qubits == ghz3.num_qubits
