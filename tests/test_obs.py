"""Tests for the observability subsystem: tracing, JSON logs, slow-request log.

Covers the span core (tree building, serialisation, propagation seams), the
always-on span histograms and their :func:`~repro.obs.timed_span` /
:func:`~repro.obs.timed` contract, trace propagation and histogram merging
through the compile service (in-process, coalesced, process-lane, and
remote), and the supporting pieces: :class:`~repro.obs.SlowRequestLog` and
the JSON log formatter's trace stamping.
"""

from __future__ import annotations

import io
import json
import re
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.api.registry import get_backend
from repro.api.result import CompilationResult
from repro.bench import benchmark_circuit
from repro.compilers.presets import preset_pass_manager, run_preset_manager
from repro.devices import get_device
from repro.features import feature_vectors_batch
from repro.gateway.metrics import quantile, render_prometheus
from repro.obs import (
    BUCKETS,
    Histograms,
    JsonFormatter,
    SlowRequestLog,
    Span,
    SpanContext,
    activate,
    as_context,
    configure_json_logging,
    current_span,
    get_logger,
    new_trace_id,
    span,
    span_histograms,
    timed,
    timed_span,
    valid_trace_id,
)
from repro.service import CacheServer, CompileService, ServiceClient


@pytest.fixture(scope="module")
def ghz4():
    return benchmark_circuit("ghz", 4)


class _GatedBackend:
    """Wraps a registered backend; its seed-999 compile waits until released."""

    def __init__(self, inner: str):
        self.inner = get_backend(inner)
        self.name = f"gated-{inner}"
        self.blocker_running = threading.Event()
        self.release = threading.Event()

    def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
        if seed == 999:
            self.blocker_running.set()
            assert self.release.wait(timeout=60), "gate never released"
        return self.inner.compile(circuit, device=device, objective=objective, seed=seed)


@pytest.fixture(autouse=True)
def _fresh_histograms():
    """Every test starts with empty process-global span histograms."""
    span_histograms().reset()


# ---------------------------------------------------------------------------------
# span core
# ---------------------------------------------------------------------------------


class TestSpanCore:
    def test_tree_building_and_ids(self):
        root = Span("root", attrs={"tenant": "alice"})
        child = root.child("work")
        grandchild = child.child("inner")
        assert child.trace_id == root.trace_id == grandchild.trace_id
        assert child.parent_id == root.span_id
        assert grandchild.parent_id == child.span_id
        assert len({root.span_id, child.span_id, grandchild.span_id}) == 3
        assert not root.finished
        duration = root.finish()
        assert root.finished and duration >= 0

    def test_finish_is_idempotent(self):
        node = Span("once")
        first = node.finish(status="error")
        second = node.finish(status="ok")  # too late: already closed
        assert first == second == node.duration
        assert node.status == "ok"  # status updates still apply by design

    def test_event_is_a_finished_child(self):
        root = Span("root")
        marker = root.event("cache.hit", key="abc")
        assert marker.finished
        assert marker.attrs == {"key": "abc"}
        assert root.children == [marker]

    def test_json_round_trip_preserves_structure_and_ids(self):
        root = Span("root", attrs={"n": 1})
        child = root.child("stage.routing")
        child.finish(status="error")
        root.finish()
        payload = json.loads(json.dumps(root.to_dict()))
        rebuilt = Span.from_dict(payload)
        assert [(d, s.name) for d, s in rebuilt.walk()] == [
            (d, s.name) for d, s in root.walk()
        ]
        assert rebuilt.span_id == root.span_id
        assert rebuilt.children[0].span_id == child.span_id
        assert rebuilt.children[0].status == "error"
        assert rebuilt.attrs == {"n": 1}
        assert rebuilt.duration == pytest.approx(root.duration)

    def test_as_context_accepts_every_carrier(self):
        root = Span("root")
        for carrier in (root, root.context(), root.context().to_dict()):
            ctx = as_context(carrier)
            assert ctx == SpanContext(root.trace_id, root.span_id)
        assert as_context(None) is None  # no ambient span on this thread
        with pytest.raises(TypeError):
            as_context(42)

    def test_as_context_picks_up_the_ambient_span(self):
        root = Span("root")
        with activate(root):
            assert as_context(None) == root.context()

    def test_valid_trace_id(self):
        assert valid_trace_id(new_trace_id())
        assert valid_trace_id("abc-DEF_123")
        assert not valid_trace_id("no spaces")
        assert not valid_trace_id("abc")  # too short
        assert not valid_trace_id("x" * 129)
        assert not valid_trace_id(None)
        assert not valid_trace_id(b"deadbeefcafe")


class TestPropagation:
    def test_span_is_a_noop_without_a_parent(self):
        assert current_span() is None
        with span("orphan") as node:
            assert node is None

    def test_span_nests_under_the_active_span(self):
        root = Span("root")
        with activate(root):
            with span("outer") as outer:
                assert current_span() is outer
                with span("inner", attrs={"k": 1}) as inner:
                    assert inner.parent_id == outer.span_id
            assert current_span() is root
        assert current_span() is None
        assert [s.name for _, s in root.walk()] == ["root", "outer", "inner"]

    def test_span_records_errors(self):
        root = Span("root")
        with activate(root):
            with pytest.raises(ValueError):
                with span("boom"):
                    raise ValueError("nope")
        assert root.children[0].status == "error"
        assert root.children[0].finished

    def test_activate_crosses_threads(self):
        root = Span("root")
        seen = {}

        def worker():
            # The span arrived through an explicit payload, not inheritance.
            assert current_span() is None
            with activate(root):
                with span("thread.work") as node:
                    seen["node"] = node

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        assert seen["node"].parent_id == root.span_id
        assert root.children[0].name == "thread.work"

    def test_timed_span_feeds_span_and_histogram_identically(self):
        root = Span("root")
        with activate(root):
            with timed_span("stage.test", items=7) as node:
                pass
        entry = span_histograms().snapshot()["stage.test"]
        assert entry["count"] == 1
        assert entry["items"] == 7
        # One perf_counter pair serves both sinks.
        assert node.duration == entry["sum"]
        assert node.attrs["items"] == 7

    def test_timed_span_records_without_a_trace(self):
        with timed_span("stage.lonely", items=2) as node:
            pass
        assert node is None
        assert span_histograms().snapshot()["stage.lonely"]["count"] == 1

    def test_timed_records_no_span(self):
        root = Span("root")
        with activate(root):
            with timed("kernel.test", items=3):
                pass
        assert root.children == []
        entry = span_histograms().snapshot()["kernel.test"]
        assert (entry["count"], entry["items"]) == (1, 3)


# ---------------------------------------------------------------------------------
# always-on span histograms
# ---------------------------------------------------------------------------------


class TestHistograms:
    def test_buckets_are_cumulative_with_an_inf_tail(self):
        hist = Histograms()
        for seconds in (0.00005, 0.0001, 0.003, 0.003, 42.0):
            hist.observe("site", seconds, items=2)
        entry = hist.snapshot()["site"]
        assert len(entry["buckets"]) == len(BUCKETS) + 1
        by_le = dict(zip(BUCKETS, entry["buckets"]))
        assert by_le[0.0001] == 2  # upper bounds are inclusive
        assert by_le[0.0025] == 2
        assert by_le[0.005] == 4
        assert by_le[10.0] == 4
        assert entry["buckets"][-1] == entry["count"] == 5
        assert entry["sum"] == pytest.approx(42.00615)
        assert entry["items"] == 10

    def test_merge_adds_another_snapshot(self):
        worker = Histograms()
        worker.observe("stage.routing", 0.02, items=5)
        worker.observe("kernel.k", 0.0003)
        parent = Histograms()
        parent.observe("stage.routing", 3.0, items=1)
        # The snapshot crosses a process boundary as plain JSON-able data.
        parent.merge(json.loads(json.dumps(worker.snapshot())))
        merged = parent.snapshot()
        assert merged["stage.routing"]["count"] == 2
        assert merged["stage.routing"]["items"] == 6
        assert merged["stage.routing"]["sum"] == pytest.approx(3.02)
        assert merged["kernel.k"] == worker.snapshot()["kernel.k"]
        reference = Histograms()
        for seconds in (0.02, 3.0):
            reference.observe("stage.routing", seconds)
        assert merged["stage.routing"]["buckets"] == reference.snapshot()["stage.routing"]["buckets"]

    def test_concurrent_observations_are_not_lost(self):
        hist = Histograms()
        n_threads, per_thread = 8, 2000

        def work():
            for _ in range(per_thread):
                hist.observe("hot", 0.001, items=1)

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(n_threads)]
            for worker in workers:
                worker.start()
            deadline = time.monotonic() + 60
            while any(w.is_alive() for w in workers) and time.monotonic() < deadline:
                hist.snapshot()  # readers race the writers
            for worker in workers:
                worker.join(timeout=5)
                assert not worker.is_alive()
        finally:
            sys.setswitchinterval(previous)
        entry = hist.snapshot()["hot"]
        assert entry["count"] == entry["items"] == n_threads * per_thread

    def test_reset_empties_the_sink(self):
        hist = Histograms()
        hist.observe("x", 0.1)
        hist.reset()
        assert hist.snapshot() == {}

    def test_pass_and_kernel_sites_record_without_opt_in(self):
        circuit = benchmark_circuit("qft", 4)
        manager = preset_pass_manager("qiskit", 3)
        run_preset_manager(manager, circuit, get_device("ibmq_washington"), seed=0)
        feature_vectors_batch([circuit])
        spans = span_histograms().snapshot()
        assert any(name.startswith("pass.") for name in spans)
        assert any(name.startswith("stage.") for name in spans)
        entry = spans["kernel.feature_vectors_batch"]
        assert entry["count"] == 1 and entry["items"] == 1

    def test_prometheus_exposition_of_span_histograms(self):
        hist = Histograms()
        hist.observe("pass.demo", 0.0002, items=15)
        hist.observe("pass.demo", 0.3, items=25)
        hist.observe("stage.quiet", 0.001)
        text = render_prometheus({"spans": hist.snapshot()})
        assert "# TYPE repro_span_duration_seconds histogram" in text
        assert 'repro_span_duration_seconds_bucket{le="0.00025",span="pass.demo"} 1' in text
        assert 'repro_span_duration_seconds_bucket{le="+Inf",span="pass.demo"} 2' in text
        assert 'repro_span_duration_seconds_count{span="pass.demo"} 2' in text
        assert 'repro_span_duration_seconds_sum{span="pass.demo"} 0.3002' in text
        assert 'repro_span_items_total{span="pass.demo"} 40' in text
        # Sites that count no items export no items series.
        assert 'repro_span_items_total{span="stage.quiet"}' not in text

    def test_no_spans_render_nothing(self):
        assert "repro_span" not in render_prometheus({})


# ---------------------------------------------------------------------------------
# quantile fix (satellite): floor(q * (n - 1) + 0.5), not banker's rounding
# ---------------------------------------------------------------------------------


class TestQuantileRounding:
    def test_median_of_two_rounds_up(self):
        # round(0.5) == 0 under banker's rounding, which used to pick the
        # *lower* of two samples as the median.
        assert quantile([10.0, 20.0], 0.5) == 20.0

    def test_exact_half_ranks_round_up_everywhere(self):
        assert quantile([1, 2, 3, 4], 0.5) == 3  # rank 1.5 -> index 2
        assert quantile([1, 2, 3, 4, 5, 6], 0.5) == 4  # rank 2.5 -> index 3
        assert quantile([1, 2, 3], 0.25) == 2  # rank 0.5 -> index 1

    def test_extremes_clamp(self):
        assert quantile([5.0, 1.0, 3.0], 0.0) == 1.0
        assert quantile([5.0, 1.0, 3.0], 1.0) == 5.0


# ---------------------------------------------------------------------------------
# slow-request log
# ---------------------------------------------------------------------------------


class TestSlowRequestLog:
    def test_keeps_the_slowest_n(self):
        log = SlowRequestLog(capacity=3)
        admitted = [
            log.observe(trace_id=f"t{i}", name=f"job{i}", seconds=float(i))
            for i in range(1, 6)
        ]
        assert admitted == [True, True, True, True, True]  # each evicts a faster one
        assert not log.observe(trace_id="tiny", name="fast", seconds=0.5)
        assert len(log) == 3
        assert [e["seconds"] for e in log.snapshot()] == [5.0, 4.0, 3.0]

    def test_breakdown_is_flattened_and_capped(self):
        root = Span("gateway.request")
        child = root.child("service.request")
        for i in range(60):
            child.child(f"stage.{i}").finish()
        child.finish()
        root.finish()
        log = SlowRequestLog()
        log.observe(trace_id=root.trace_id, name="big", seconds=1.0, tree=root.to_dict())
        (entry,) = log.snapshot()
        rows = entry["breakdown"]
        assert len(rows) == 40  # bounded against pathological trees
        assert rows[0] == {
            "name": "gateway.request",
            "duration": root.duration,
            "depth": 0,
            "status": "ok",
        }
        assert rows[1]["name"] == "service.request" and rows[1]["depth"] == 1
        assert rows[2]["name"] == "stage.0" and rows[2]["depth"] == 2

    def test_capacity_validation_and_clear(self):
        with pytest.raises(ValueError):
            SlowRequestLog(capacity=0)
        log = SlowRequestLog(capacity=2)
        log.observe(trace_id="t", name="x", seconds=1.0)
        log.clear()
        assert len(log) == 0 and log.snapshot() == []


# ---------------------------------------------------------------------------------
# JSON logging
# ---------------------------------------------------------------------------------


class TestJsonLogging:
    def test_records_carry_the_trace_stamp(self):
        stream = io.StringIO()
        configure_json_logging(stream=stream, logger="repro-test-json")
        log = get_logger("repro-test-json.unit")
        root = Span("root")
        with activate(root):
            log.info("traced line", extra={"tenant": "alice", "weird": object()})
        log.info("untraced line")
        lines = [json.loads(line) for line in stream.getvalue().splitlines()]
        assert lines[0]["msg"] == "traced line"
        assert lines[0]["trace_id"] == root.trace_id
        assert lines[0]["span_id"] == root.span_id
        assert lines[0]["tenant"] == "alice"
        assert "object object" in lines[0]["weird"]  # non-JSON extras degrade to repr
        assert "trace_id" not in lines[1]

    def test_configure_is_idempotent(self):
        stream = io.StringIO()
        logger = configure_json_logging(stream=stream, logger="repro-test-idem")
        configure_json_logging(stream=stream, logger="repro-test-idem")
        json_handlers = [
            h for h in logger.handlers if isinstance(h.formatter, JsonFormatter)
        ]
        assert len(json_handlers) == 1
        logger.info("once")
        assert len(stream.getvalue().splitlines()) == 1

    def test_formatter_includes_exception_repr(self):
        stream = io.StringIO()
        logger = configure_json_logging(stream=stream, logger="repro-test-exc")
        try:
            raise RuntimeError("kaboom")
        except RuntimeError:
            logger.exception("failed")
        payload = json.loads(stream.getvalue().splitlines()[0])
        assert payload["level"] == "ERROR"
        assert "kaboom" in payload["error"]


# ---------------------------------------------------------------------------------
# traces through the compile service
# ---------------------------------------------------------------------------------


def span_names(tree: dict) -> set:
    """Every span name in a serialised tree."""
    names = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        names.add(node["name"])
        stack.extend(node.get("children") or [])
    return names


def name_structure(tree: dict) -> tuple:
    """The tree as nested ``(name, (children...))`` tuples, children sorted."""
    children = tuple(
        sorted(name_structure(child) for child in tree.get("children") or [])
    )
    return (tree["name"], children)


def find_spans(tree: dict, name: str) -> list[dict]:
    found = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if node["name"] == name:
            found.append(node)
        stack.extend(node.get("children") or [])
    return found


class TestServiceTracing:
    def test_untraced_requests_carry_no_trace(self, ghz4):
        with CompileService(max_workers=1) as service:
            result = service.submit(
                ghz4, "qiskit-o0", device="ibmq_washington"
            ).result(timeout=120)
        assert result.succeeded
        assert "trace" not in result.metadata

    def test_in_process_propagation_builds_the_full_tree(self, ghz4):
        root = Span("test.root", trace_id="trace-test-0001")
        with CompileService(max_workers=1) as service:
            result = service.submit(
                ghz4, "qiskit-o1", device="ibmq_washington", trace=root
            ).result(timeout=120)
        assert result.succeeded
        tree = result.metadata["trace"]
        assert tree["name"] == "service.request"
        assert tree["trace_id"] == "trace-test-0001"
        assert tree["parent_id"] == root.span_id
        names = span_names(tree)
        assert {"queue.wait", "lane.execute"} <= names
        assert {n for n in names if n.startswith("stage.")}, names
        # Every span shares the one trace id and is finished.
        stack = [tree]
        while stack:
            node = stack.pop()
            assert node["trace_id"] == "trace-test-0001"
            assert node["duration"] is not None
            stack.extend(node.get("children") or [])
        # The tree is a JSON round-trip away from a Span at all times.
        rebuilt = Span.from_dict(json.loads(json.dumps(tree)))
        assert span_names(rebuilt.to_dict()) == names

    def test_ambient_span_propagates_without_an_argument(self, ghz4):
        root = Span("ambient.root")
        with CompileService(max_workers=1) as service:
            with activate(root):
                future = service.submit(ghz4, "qiskit-o0", device="ibmq_washington")
            result = future.result(timeout=120)
        assert result.metadata["trace"]["trace_id"] == root.trace_id

    def test_cache_hits_answer_with_this_requests_trace(self, ghz4):
        with CompileService(max_workers=1) as service:
            service.submit(
                ghz4, "qiskit-o0", device="ibmq_washington", seed=7
            ).result(timeout=120)
            root = Span("cache.root")
            again = service.submit(
                ghz4, "qiskit-o0", device="ibmq_washington", seed=7, trace=root
            ).result(timeout=120)
        assert again.metadata.get("cached") is True
        tree = again.metadata["trace"]
        assert tree["trace_id"] == root.trace_id
        assert "cache.hit" in span_names(tree)
        assert "lane.execute" not in span_names(tree)

    def test_coalesced_followers_share_the_execute_span(self, ghz4):
        backend = _GatedBackend("qiskit-o1")
        with CompileService(max_workers=1) as service:
            # Hold the single worker on the gated blocker, so both identical
            # requests are queued together and the second coalesces onto the
            # first however long the submits take.
            blocker = service.submit(ghz4, backend, device="ibmq_washington", seed=999)
            assert backend.blocker_running.wait(timeout=60)
            owner_root = Span("owner.root")
            follower_root = Span("follower.root")
            owner = service.submit(
                ghz4, backend, device="ibmq_washington", seed=41, trace=owner_root
            )
            follower = service.submit(
                ghz4, backend, device="ibmq_washington", seed=41, trace=follower_root
            )
            backend.release.set()
            blocker.result(timeout=120)
            owner_tree = owner.result(timeout=120).metadata["trace"]
            follower_tree = follower.result(timeout=120).metadata["trace"]
            assert service.stats()["coalesced"] == 1
        # Distinct request spans, one shared lane.execute span.
        assert owner_tree["span_id"] != follower_tree["span_id"]
        assert follower_tree["attrs"].get("coalesced") is True
        (owner_exec,) = find_spans(owner_tree, "lane.execute")
        (follower_exec,) = find_spans(follower_tree, "lane.execute")
        assert owner_exec["span_id"] == follower_exec["span_id"]
        # Both trees still carry their own queue.wait.
        assert find_spans(owner_tree, "queue.wait")
        assert find_spans(follower_tree, "queue.wait")

    def test_process_lane_trace_comes_home(self, ghz4):
        server = CacheServer(maxsize=64)
        try:
            root = Span("process.root")
            with CompileService(
                store=server.store(), process_backends=("qiskit-o1",), max_workers=1
            ) as service:
                result = service.submit(
                    ghz4, "qiskit-o1", device="ibmq_washington", trace=root
                ).result(timeout=180)
            assert result.succeeded
            tree = result.metadata["trace"]
            # The worker's spans came home across the pickle boundary (grafted
            # under lane.execute, same shape as a thread lane) and the
            # transport key was stripped before the result reached us.
            assert "lane.execute" in span_names(tree)
            assert {n for n in span_names(tree) if n.startswith("stage.")}
            assert "_worker" not in result.metadata
        finally:
            server.shutdown()

    def test_process_lane_histograms_count_every_request(self, ghz4):
        """N untraced process-lane requests add exactly N to every stage.

        A thread-lane compile first leaves stage counts in this process's
        sink, so a forked worker that shipped inherited counts, or a worker
        that shipped cumulative rather than per-task counts across its
        sequential tasks, would overshoot.
        """
        with CompileService(max_workers=1) as warm:
            warm.submit(ghz4, "qiskit-o1", device="ibmq_washington", seed=100).result(
                timeout=120
            )
        before = span_histograms().snapshot()
        assert before["stage.routing"]["count"] == 1
        n = 3
        with CompileService(process_backends=("qiskit-o1",), max_workers=1) as service:
            futures = [
                service.submit(ghz4, "qiskit-o1", device="ibmq_washington", seed=seed)
                for seed in range(n)
            ]
            assert all(f.result(timeout=180).succeeded for f in futures)
            spans = service.stats()["spans"]
        stages = {name for name in spans if name.startswith("stage.")}
        assert stages == {name for name in before if name.startswith("stage.")}
        for name in stages:
            assert spans[name]["count"] - before[name]["count"] == n, name


class TestResultTraceRoundTrip:
    def test_trace_survives_to_dict_from_dict(self, ghz4):
        root = Span("roundtrip.root")
        with CompileService(max_workers=1) as service:
            result = service.submit(
                ghz4, "qiskit-o0", device="ibmq_washington", trace=root
            ).result(timeout=120)
        wire = json.loads(json.dumps(result.to_dict()))
        rebuilt = CompilationResult.from_dict(wire)
        assert rebuilt.trace == result.metadata["trace"]
        assert rebuilt.trace["trace_id"] == root.trace_id
        assert name_structure(rebuilt.trace) == name_structure(result.trace)

    def test_trace_property_defaults_to_none(self):
        result = CompilationResult(
            circuit=None, device=None, reward=0.0, reward_name="fidelity"
        )
        assert result.trace is None


class TestRemoteServiceTracing:
    def test_remote_tree_matches_in_process_structure(self, ghz4, tmp_path):
        """One structure for both backends: the RPC seam loses nothing."""
        with CompileService(max_workers=1) as service:
            local = service.submit(
                ghz4,
                "qiskit-o1",
                device="ibmq_washington",
                trace=Span("local.root"),
            ).result(timeout=120)
        local_tree = local.metadata["trace"]

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
                root = Span("remote.root", trace_id="trace-remote-0001")
                remote = client.submit(
                    ghz4, backend="qiskit-o1", device="ibmq_washington", trace=root
                ).result(timeout=180)
        finally:
            proc.terminate()
            try:
                proc.wait(timeout=20)
            except subprocess.TimeoutExpired:  # pragma: no cover - stuck server
                proc.kill()
                proc.wait()
            finally:
                proc.stdout.close()
        assert remote.succeeded
        remote_tree = remote.metadata["trace"]
        assert remote_tree["trace_id"] == "trace-remote-0001"
        assert remote_tree["parent_id"] == root.span_id
        assert name_structure(remote_tree) == name_structure(local_tree)
        assert {"queue.wait", "lane.execute"} <= span_names(remote_tree)
