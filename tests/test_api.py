"""Unit tests for the unified compilation API: facade, registry, batch service."""

from __future__ import annotations

import pytest

import repro
from repro.api import (
    BestOfBackend,
    CompilationCache,
    CompilationResult,
    PredictorBackend,
    UnknownBackendError,
    circuit_fingerprint,
    compile_batch,
    get_backend,
    list_backends,
    register_backend,
    resolve_backend,
    unregister_backend,
)
from repro.bench import benchmark_circuit, benchmark_suite
from repro.circuit import QuantumCircuit


class _StubBackend:
    """Minimal registrable backend for registry tests."""

    def __init__(self, name="stub"):
        self.name = name

    def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
        return CompilationResult(
            circuit=circuit, device=device, reward=0.5, reward_name=objective, backend=self.name
        )


class _FailingBackend:
    name = "failing"

    def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
        raise RuntimeError(f"cannot compile {circuit.name}")


class TestRegistry:
    def test_builtin_backends_registered(self):
        names = list_backends()
        for level in range(4):
            assert f"qiskit-o{level}" in names
        for level in range(3):
            assert f"tket-o{level}" in names
        assert "best-of" in names

    def test_get_backend_resolves_aliases(self):
        assert get_backend("qiskit").name == "qiskit-o3"
        assert get_backend("tket").name == "tket-o2"

    def test_unknown_backend_error(self):
        with pytest.raises(UnknownBackendError) as excinfo:
            get_backend("no-such-backend")
        assert isinstance(excinfo.value, KeyError)
        assert "qiskit-o3" in str(excinfo.value)

    def test_unknown_rl_backend_hints_at_registration(self):
        unregister_backend("rl")
        with pytest.raises(UnknownBackendError, match="as_backend"):
            get_backend("rl")

    def test_register_lookup_unregister(self):
        backend = _StubBackend("custom-flow")
        register_backend("custom-flow", backend)
        try:
            assert get_backend("custom-flow") is backend
            assert "custom-flow" in list_backends()
            with pytest.raises(ValueError, match="already registered"):
                register_backend("custom-flow", _StubBackend())
            register_backend("custom-flow", backend, overwrite=True)
        finally:
            unregister_backend("custom-flow")
        assert "custom-flow" not in list_backends()

    def test_register_rejects_non_backend(self):
        with pytest.raises(TypeError):
            register_backend("bogus", object())

    def test_resolve_backend_rejects_garbage(self):
        with pytest.raises(TypeError):
            resolve_backend(42)


class TestFacade:
    @pytest.mark.parametrize("backend", ["qiskit-o0", "qiskit-o3", "tket-o0", "tket-o2"])
    def test_preset_backends_unified_result(self, backend, washington):
        circuit = benchmark_circuit("ghz", 4)
        result = repro.compile(circuit, backend=backend, device=washington)
        assert isinstance(result, CompilationResult)
        assert result.succeeded and result.error is None
        assert result.backend == backend
        assert washington.is_executable(result.circuit)
        assert result.actions and result.passes == result.actions
        assert result.wall_time > 0
        assert set(result.scores) == {"fidelity", "critical_depth", "combination"}
        assert result.reward == pytest.approx(result.scores["fidelity"])

    def test_device_accepts_name_and_defaults_to_washington(self):
        circuit = benchmark_circuit("dj", 3)
        by_name = repro.compile(circuit, backend="qiskit-o3", device="ibmq_washington")
        by_default = repro.compile(circuit, backend="qiskit-o3")
        assert by_name.device.name == by_default.device.name == "ibmq_washington"

    def test_objective_selects_headline_reward(self, washington):
        circuit = benchmark_circuit("qft", 4)
        result = repro.compile(
            circuit, backend="tket-o2", device=washington, objective="critical_depth"
        )
        assert result.reward_name == "critical_depth"
        assert result.reward == pytest.approx(result.scores["critical_depth"])

    def test_unknown_objective_rejected(self, washington):
        with pytest.raises(KeyError):
            repro.compile(benchmark_circuit("ghz", 3), device=washington, objective="speed")

    def test_unknown_objective_rejected_by_rl_backend(self, trained_predictor):
        with pytest.raises(KeyError, match="unknown reward"):
            repro.compile(benchmark_circuit("ghz", 3), backend=trained_predictor, objective="speed")

    def test_rl_backend_from_predictor_instance(self, trained_predictor):
        circuit = benchmark_circuit("ghz", 3)
        result = repro.compile(circuit, backend=trained_predictor)
        assert result.backend == "rl"
        assert result.succeeded
        assert result.device is not None
        assert result.device.is_executable(result.circuit)

    def test_rl_backend_registered_by_name(self, trained_predictor):
        register_backend("rl", trained_predictor.as_backend(), overwrite=True)
        try:
            result = repro.compile(benchmark_circuit("ghz", 3), backend="rl")
            assert result.backend == "rl" and result.succeeded
        finally:
            unregister_backend("rl")

    def test_rl_result_matches_predictor_compile(self, trained_predictor):
        circuit = benchmark_circuit("dj", 3)
        direct = trained_predictor.compile(circuit)
        via_facade = repro.compile(circuit, backend=trained_predictor)
        assert via_facade.reward == pytest.approx(direct.reward)
        assert via_facade.actions == direct.actions

    def test_best_of_picks_the_best_candidate(self, washington):
        circuit = benchmark_circuit("ghz", 4)
        best = repro.compile(circuit, backend="best-of", device=washington)
        assert best.succeeded
        candidates = best.metadata["candidates"]
        assert set(candidates) == {"qiskit-o3", "tket-o2"}
        assert best.reward == pytest.approx(max(candidates.values()))
        assert best.metadata["winner"] in candidates

    def test_best_of_survives_candidate_failure(self, washington):
        backend = BestOfBackend([_FailingBackend(), "qiskit-o3"], name="best-of-test")
        result = backend.compile(benchmark_circuit("ghz", 3), device=washington)
        assert result.succeeded
        assert result.metadata["winner"] == "qiskit-o3"
        assert "failing" in result.metadata["candidate_errors"]

    def test_best_of_all_failures_is_structured(self):
        backend = BestOfBackend([_FailingBackend()], name="best-of-fail")
        result = backend.compile(benchmark_circuit("ghz", 3))
        assert not result.succeeded
        assert "failing" in (result.error or "")


class TestRemovedShims:
    def test_old_result_type_importable_from_core(self):
        from repro.core import CompilationResult as CoreResult

        assert CoreResult is CompilationResult


class TestBatchCompilation:
    def test_sweep_ten_circuits_two_backends_with_caching(self):
        circuits = benchmark_suite(2, 6, step=1, names=["ghz", "dj"])
        assert len(circuits) >= 10
        cache = CompilationCache()
        batch = compile_batch(
            circuits, backends=["qiskit-o1", "tket-o1"], cache=cache, max_workers=4
        )
        assert len(batch) == 2 * len(circuits)
        assert not batch.failures
        assert all(not r.metadata.get("cached") for r in batch)
        assert len(batch.by_backend("qiskit-o1")) == len(circuits)
        # Re-running the sweep is served entirely from the cache.
        again = compile_batch(
            circuits, backends=["qiskit-o1", "tket-o1"], cache=cache, max_workers=4
        )
        assert all(r.metadata.get("cached") for r in again)
        assert cache.hits == len(again)
        for index in range(len(circuits)):
            first = batch.get(index, "qiskit-o1")
            second = again.get(index, "qiskit-o1")
            assert second.reward == pytest.approx(first.reward)

    def test_cache_repoints_objective_without_recompiling(self):
        circuits = [benchmark_circuit("ghz", 3)]
        cache = CompilationCache()
        fidelity = compile_batch(circuits, backends=["qiskit-o2"], cache=cache)
        depth = compile_batch(
            circuits, backends=["qiskit-o2"], cache=cache, objective="critical_depth"
        )
        result = depth.get(0, "qiskit-o2")
        assert result.metadata.get("cached")
        assert result.reward_name == "critical_depth"
        assert result.reward == pytest.approx(
            fidelity.get(0, "qiskit-o2").scores["critical_depth"]
        )

    def test_failing_circuit_does_not_kill_the_sweep(self):
        # A 20-qubit circuit cannot fit the 8-qubit oqc_lucy device.
        too_big = QuantumCircuit(20, name="too_big")
        for q in range(19):
            too_big.cx(q, q + 1)
        good = benchmark_circuit("ghz", 3)
        batch = compile_batch(
            [good, too_big], backends=["qiskit-o3"], device="oqc_lucy", cache=None
        )
        assert len(batch) == 2
        ok, failed = batch.get(0, "qiskit-o3"), batch.get(1, "qiskit-o3")
        assert ok.succeeded
        assert not failed.succeeded
        assert failed.error
        assert failed.reward == 0.0
        assert failed.circuit is too_big
        assert len(batch.failures) == 1

    def test_failing_backend_captured_per_item(self):
        circuits = [benchmark_circuit("ghz", 3), benchmark_circuit("dj", 3)]
        batch = compile_batch(circuits, backends=[_FailingBackend(), "qiskit-o0"], cache=None)
        assert len(batch.failures) == 2
        assert all(r.backend == "failing" for r in batch.failures)
        assert all(r.succeeded for r in batch.by_backend("qiskit-o0"))

    def test_failures_are_not_cached(self):
        cache = CompilationCache()
        circuits = [benchmark_circuit("ghz", 3)]
        compile_batch(circuits, backends=[_FailingBackend()], cache=cache)
        assert len(cache) == 0

    def test_mixed_predictor_and_preset_backends(self, trained_predictor):
        circuits = [benchmark_circuit("ghz", 3), benchmark_circuit("dj", 3)]
        batch = compile_batch(
            circuits, backends=[trained_predictor, "qiskit-o3"], cache=None, max_workers=2
        )
        assert len(batch) == 4
        assert {r.backend for r in batch} == {"rl", "qiskit-o3"}
        assert all(r.succeeded for r in batch)

    def test_requires_a_backend(self):
        with pytest.raises(ValueError):
            compile_batch([benchmark_circuit("ghz", 3)], backends=[])

    def test_lookup_works_with_alias_spec(self):
        circuits = [benchmark_circuit("ghz", 3)]
        batch = compile_batch(circuits, backends=["qiskit", "tket"], cache=None)
        assert batch.get(0, "qiskit").backend == "qiskit-o3"
        assert batch.get(0, "qiskit") is batch.get(0, "qiskit-o3")
        assert batch.get(0, "tket").backend == "tket-o2"

    def test_unknown_objective_rejected_even_on_warm_cache(self):
        circuits = [benchmark_circuit("ghz", 3)]
        cache = CompilationCache()
        compile_batch(circuits, backends=["qiskit-o1"], cache=cache)
        with pytest.raises(KeyError, match="unknown reward"):
            compile_batch(circuits, backends=["qiskit-o1"], cache=cache, objective="speeed")

    def test_serial_and_parallel_agree(self):
        circuits = benchmark_suite(3, 4, step=1, names=["ghz", "qft"])
        serial = compile_batch(circuits, backends=["qiskit-o2"], cache=None, max_workers=1)
        parallel = compile_batch(circuits, backends=["qiskit-o2"], cache=None, max_workers=8)
        for index in range(len(circuits)):
            assert parallel.get(index, "qiskit-o2").reward == pytest.approx(
                serial.get(index, "qiskit-o2").reward
            )

    def test_batch_summary_mentions_failures(self):
        batch = compile_batch([benchmark_circuit("ghz", 3)], backends=[_FailingBackend()], cache=None)
        assert "1 failed" in batch.summary()

    def test_duplicate_and_alias_specs_deduplicated(self):
        """Regression: "qiskit" + "qiskit-o3" used to silently overwrite index
        entries; now the resolved backend runs once and both names look it up."""
        circuits = [benchmark_circuit("ghz", 3), benchmark_circuit("dj", 3)]
        batch = compile_batch(
            circuits, backends=["qiskit", "qiskit-o3", "qiskit-o3"], cache=None
        )
        # One backend after dedup: one result per circuit, not three.
        assert len(batch) == len(circuits)
        for index in range(len(circuits)):
            assert batch.get(index, "qiskit") is batch.get(index, "qiskit-o3")

    def test_same_predictor_twice_deduplicates(self, trained_predictor):
        circuits = [benchmark_circuit("ghz", 3)]
        batch = compile_batch(
            circuits, backends=[trained_predictor, trained_predictor], cache=None
        )
        assert len(batch) == 1
        assert batch.get(0, "rl").backend == "rl"

    def test_two_different_predictors_conflict_with_guidance(self, trained_predictor):
        from repro.core import Predictor

        other = Predictor(reward=trained_predictor.reward_name)
        other._agent = trained_predictor._agent  # trained enough to resolve
        with pytest.raises(ValueError, match="as_backend"):
            compile_batch(
                [benchmark_circuit("ghz", 3)],
                backends=[trained_predictor, other],
                cache=None,
            )

    def test_duplicate_circuit_compiled_once_per_sweep(self):
        circuit = benchmark_circuit("ghz", 3)
        cache = CompilationCache()
        batch = compile_batch([circuit, circuit], backends=["qiskit-o1"], cache=cache)
        assert len(batch) == 2
        first, second = batch.get(0, "qiskit-o1"), batch.get(1, "qiskit-o1")
        assert not first.metadata.get("cached")
        assert second.metadata.get("cached")
        assert second.reward == pytest.approx(first.reward)
        # Only the owner's compilation entered the cache.
        assert len(cache) == 1

    def test_duplicate_circuit_deduplicated_even_without_cache(self):
        circuit = benchmark_circuit("ghz", 3)
        batch = compile_batch([circuit, circuit], backends=["qiskit-o1"], cache=None)
        first, second = batch.get(0, "qiskit-o1"), batch.get(1, "qiskit-o1")
        assert not first.metadata.get("cached")
        assert second.metadata.get("cached")
        assert second.reward == pytest.approx(first.reward)

    def test_two_alias_spellings_of_one_backend_both_indexed(self):
        circuits = [benchmark_circuit("ghz", 3)]
        batch = compile_batch(circuits, backends=["best_of", "bestof"], cache=None)
        assert len(batch) == 1
        assert batch.get(0, "best_of") is batch.get(0, "bestof")
        assert batch.get(0, "best-of").backend == "best-of"

    def test_conflicting_backend_names_raise(self):
        class _Impostor:
            name = "qiskit-o3"

            def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
                raise AssertionError("never reached")

        with pytest.raises(ValueError, match="conflicting backend specs"):
            compile_batch(
                [benchmark_circuit("ghz", 3)],
                backends=["qiskit-o3", _Impostor()],
                cache=None,
            )

    def test_process_lanes_match_thread_lanes(self):
        from repro.service import CompileService

        circuits = [benchmark_circuit("ghz", 3), benchmark_circuit("qft", 3)]
        backends = ["qiskit-o1", "tket-o1"]
        thread = compile_batch(circuits, backends, cache=None)
        with CompileService(process_backends=tuple(backends), max_workers=2) as service:
            process = compile_batch(circuits, backends, service=service)
            lanes = service.stats()["lanes"]
        assert {lanes[name]["kind"] for name in backends} == {"process"}
        assert len(process) == len(thread) == 4
        assert not process.failures
        for index in range(len(circuits)):
            for backend in backends:
                a = thread.get(index, backend)
                b = process.get(index, backend)
                assert b.reward == pytest.approx(a.reward)
                assert b.circuit.fingerprint() == a.circuit.fingerprint()

    def test_process_lane_results_land_in_the_service_cache(self):
        from repro.service import CompileService

        circuits = [benchmark_circuit("ghz", 3)]
        with CompileService(process_backends=("qiskit-o1",)) as service:
            first = compile_batch(circuits, backends=["qiskit-o1"], service=service)
            assert not first.get(0, "qiskit-o1").metadata.get("cached")
            assert len(service.cache) == 1
            # The re-sweep is served from the service's cache.
            again = compile_batch(circuits, backends=["qiskit-o1"], service=service)
        assert again.get(0, "qiskit-o1").metadata.get("cached")

    def test_process_batch_results_pickle_round_trip(self):
        import pickle

        from repro.service import CompileService

        circuits = [benchmark_circuit("ghz", 3)]
        with CompileService(process_backends=("qiskit-o1",)) as service:
            batch = compile_batch(circuits, backends=["qiskit-o1"], service=service)
        restored = pickle.loads(pickle.dumps(batch))
        assert len(restored) == len(batch)
        original = batch.get(0, "qiskit-o1")
        round_tripped = restored.get(0, "qiskit-o1")
        assert round_tripped.reward == pytest.approx(original.reward)
        assert round_tripped.backend == original.backend
        assert round_tripped.circuit.fingerprint() == original.circuit.fingerprint()

    def test_unpicklable_backend_gets_clear_error_for_process_executor(self):
        import threading

        from repro.service import CompileService

        class _Unpicklable:
            name = "unpicklable"

            def __init__(self):
                self.lock = threading.Lock()

            def compile(self, circuit, *, device=None, objective="fidelity", seed=0):
                raise AssertionError("never reached")

        with CompileService(process_backends=("unpicklable",)) as service:
            batch = compile_batch(
                [benchmark_circuit("ghz", 3)],
                backends=[_Unpicklable(), "qiskit-o0"],
                service=service,
            )
        # The bad backend fails with a message naming the cause; the rest of
        # the sweep is unaffected.
        failed = batch.get(0, "unpicklable")
        assert not failed.succeeded
        assert "cannot be pickled" in failed.error
        assert batch.get(0, "qiskit-o0").succeeded

    def test_default_sweep_leaves_no_service_running(self, monkeypatch):
        import threading

        started: list[str] = []
        start = threading.Thread.start

        def recording_start(thread):
            started.append(thread.name)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", recording_start)
        before = {thread.ident for thread in threading.enumerate()}
        batch = compile_batch(
            [benchmark_circuit("ghz", 3), benchmark_circuit("dj", 3)],
            backends=["qiskit-o0", "tket-o0"],
            cache=None,
            max_workers=2,
        )
        assert not batch.failures
        # The short-lived service was drained and its lane workers joined
        # before compile_batch returned; it starts no thread besides them.
        assert started and all(name.startswith("svc-") for name in started)
        leftover = [
            thread.name
            for thread in threading.enumerate()
            if thread.ident not in before
            and thread.name.startswith(("compile-service", "svc-"))
        ]
        assert leftover == []

    def test_given_service_cache_is_the_only_one_used(self):
        from repro.service import CompileService

        circuits = [benchmark_circuit("ghz", 3)]
        cache = CompilationCache()
        with CompileService() as service:
            compile_batch(circuits, backends=["qiskit-o0"], cache=cache, service=service)
            assert len(service.cache) == 1
        assert len(cache) == 0


class TestFingerprintAndCache:
    def test_fingerprint_stable_and_content_sensitive(self):
        a = benchmark_circuit("ghz", 4)
        b = benchmark_circuit("ghz", 4)
        c = benchmark_circuit("ghz", 5)
        assert circuit_fingerprint(a) == circuit_fingerprint(b)
        assert circuit_fingerprint(a) != circuit_fingerprint(c)

    def test_lru_eviction(self):
        cache = CompilationCache(maxsize=2)
        r = CompilationResult(QuantumCircuit(1), None, 0.0, "fidelity")
        cache.put(("a",), r)
        cache.put(("b",), r)
        cache.put(("c",), r)
        assert len(cache) == 2
        assert cache.get(("a",)) is None

    def test_predictor_backends_never_share_cache_entries(self, trained_predictor):
        first = PredictorBackend(trained_predictor)
        second = PredictorBackend(trained_predictor)
        assert first.cache_token() != second.cache_token()


class TestUnifiedResult:
    def test_with_objective_returns_fresh_copy(self):
        result = CompilationResult(
            QuantumCircuit(1), None, 0.9, "fidelity", scores={"fidelity": 0.9, "critical_depth": 0.4}
        )
        other = result.with_objective("critical_depth")
        assert other is not result
        assert other.reward == pytest.approx(0.4)
        assert result.reward == pytest.approx(0.9)
        other.metadata["cached"] = True
        assert "cached" not in result.metadata

    def test_failure_summary_mentions_error(self):
        result = CompilationResult(
            QuantumCircuit(1), None, 0.0, "fidelity", succeeded=False, error="boom"
        )
        assert "FAILED" in result.summary() and "boom" in result.summary()


class TestResultJSONRoundTrip:
    """to_dict()/from_dict() — the gateway's serialisation seam."""

    def test_success_round_trip_through_json(self, washington):
        import json

        compiled = repro.compile(
            benchmark_circuit("ghz", 3), backend="qiskit-o1", device="ibmq_washington"
        )
        payload = json.loads(json.dumps(compiled.to_dict()))
        rebuilt = CompilationResult.from_dict(payload)
        assert rebuilt.succeeded
        assert rebuilt.backend == compiled.backend
        assert rebuilt.reward == pytest.approx(compiled.reward)
        assert rebuilt.reward_name == compiled.reward_name
        assert rebuilt.scores == pytest.approx(compiled.scores)
        assert rebuilt.actions == compiled.actions
        assert rebuilt.device is not None and rebuilt.device.name == washington.name
        assert rebuilt.circuit.count_ops() == compiled.circuit.count_ops()
        assert rebuilt.circuit.name == compiled.circuit.name
        assert rebuilt.wall_time == pytest.approx(compiled.wall_time)

    def test_structured_failure_round_trip(self):
        import json

        result = CompilationResult(
            QuantumCircuit(2),
            None,
            0.0,
            "fidelity",
            reached_done=False,
            backend="qiskit-o3",
            succeeded=False,
            error="DeadlineExceeded: deadline of 0.000s expired",
            metadata={"deadline_exceeded": True},
        )
        rebuilt = CompilationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert not rebuilt.succeeded
        assert rebuilt.error == result.error
        assert rebuilt.metadata["deadline_exceeded"] is True
        assert rebuilt.device is None
        assert not rebuilt.reached_done

    def test_unknown_device_degrades_to_none(self):
        result = CompilationResult(QuantumCircuit(1), None, 0.5, "fidelity")
        payload = result.to_dict()
        payload["device"] = "quantum-mainframe-9000"
        rebuilt = CompilationResult.from_dict(payload)
        assert rebuilt.device is None
        assert rebuilt.metadata["unknown_device"] == "quantum-mainframe-9000"

    def test_missing_mandatory_field_raises(self):
        with pytest.raises(KeyError):
            CompilationResult.from_dict({"reward_name": "fidelity"})


class TestSilentFailureSurfacing:
    def test_evaluate_warns_on_unfinished_compilation(self, trained_predictor, monkeypatch):
        failed = CompilationResult(
            benchmark_circuit("ghz", 3),
            None,
            0.0,
            "fidelity",
            reached_done=False,
            succeeded=False,
            error="policy did not finish",
        )
        monkeypatch.setattr(type(trained_predictor), "compile", lambda self, c, **kw: failed)
        with pytest.warns(RuntimeWarning, match="did not finish"):
            value = trained_predictor.evaluate(benchmark_circuit("ghz", 3))
        assert value == 0.0

    def test_compare_predictor_warns_on_rl_failure(self, trained_predictor, monkeypatch):
        from repro.evaluation import compare_predictor

        circuit = benchmark_circuit("ghz", 3)
        failed = CompilationResult(
            circuit, None, 0.0, "fidelity", reached_done=False, succeeded=False, error="stuck"
        )
        monkeypatch.setattr(type(trained_predictor), "compile", lambda self, c, **kw: failed)
        with pytest.warns(RuntimeWarning, match="scoring it as 0.0"):
            records = compare_predictor(trained_predictor, [circuit], cache=CompilationCache())
        assert records[0].rl_reward == 0.0
        assert records[0].qiskit_reward > 0.0
