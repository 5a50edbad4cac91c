"""Unit tests for the Qiskit-style and TKET-style preset compilers."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench import benchmark_circuit
from repro.compilers import (
    preset_pass_manager,
    qiskit_pipeline,
    run_preset_manager,
    tket_pipeline,
)
from repro.devices import get_device, list_devices
from repro.reward import expected_fidelity

_GOLDEN_PATH = Path(__file__).parent / "golden" / "preset_traces.json"


class TestQiskitStylePresets:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_all_levels_produce_executable_circuits(self, level, washington):
        circuit = benchmark_circuit("qft", 5)
        compiled, trace = qiskit_pipeline(circuit, washington, optimization_level=level)
        assert washington.is_executable(compiled)
        assert trace

    def test_invalid_level_rejected(self, washington):
        with pytest.raises(ValueError):
            qiskit_pipeline(benchmark_circuit("ghz", 3), washington, optimization_level=4)

    def test_higher_level_not_worse_on_qft(self, washington):
        circuit = benchmark_circuit("qft", 6)
        low, _ = qiskit_pipeline(circuit, washington, optimization_level=0)
        high, _ = qiskit_pipeline(circuit, washington, optimization_level=3)
        assert high.num_two_qubit_gates() <= low.num_two_qubit_gates()

    def test_measurements_survive(self, washington):
        circuit = benchmark_circuit("ghz", 4)
        compiled, _ = qiskit_pipeline(circuit, washington, optimization_level=3)
        assert compiled.count_ops()["measure"] == 4

    @pytest.mark.parametrize("device_name", list_devices())
    def test_works_for_every_device(self, device_name):
        device = get_device(device_name)
        circuit = benchmark_circuit("vqe", 4)
        compiled, _ = qiskit_pipeline(circuit, device, optimization_level=3)
        assert device.is_executable(compiled)

    def test_seed_reproducibility(self, washington):
        circuit = benchmark_circuit("qaoa", 5)
        first, _ = qiskit_pipeline(circuit, washington, optimization_level=3, seed=11)
        second, _ = qiskit_pipeline(circuit, washington, optimization_level=3, seed=11)
        assert first.count_ops() == second.count_ops()


class TestTketStylePresets:
    @pytest.mark.parametrize("level", [0, 1, 2])
    def test_all_levels_produce_executable_circuits(self, level, washington):
        circuit = benchmark_circuit("qft", 5)
        compiled, _ = tket_pipeline(circuit, washington, optimization_level=level)
        assert washington.is_executable(compiled)

    def test_invalid_level_rejected(self, washington):
        with pytest.raises(ValueError):
            tket_pipeline(benchmark_circuit("ghz", 3), washington, optimization_level=3)

    @pytest.mark.parametrize("device_name", list_devices())
    def test_works_for_every_device(self, device_name):
        device = get_device(device_name)
        circuit = benchmark_circuit("wstate", 4)
        compiled, _ = tket_pipeline(circuit, device, optimization_level=2)
        assert device.is_executable(compiled)

    def test_uses_tket_passes(self, washington):
        _, trace = tket_pipeline(benchmark_circuit("ghz", 4), washington, optimization_level=2)
        assert "full_peephole_optimise" in trace
        assert "tket_routing" in trace


def _golden_cases() -> list[dict]:
    return json.loads(_GOLDEN_PATH.read_text())


def _case_id(case: dict) -> str:
    suffix = "-iter" if case.get("iterate") else ""
    return f"{case['style']}-o{case['level']}{suffix}-{case['circuit']}-{case['device']}"


class TestGoldenTraces:
    """Pin the preset flows (base and ``-iter`` levels) to golden behaviour.

    The base-level entries were generated from the hand-rolled pipeline loops
    before they were replaced by declarative ``PassManager`` schedules; the
    ``iterate: true`` entries pin the experimental fixed-point levels
    (``qiskit-o3-iter`` / ``tket-o2-iter``) the same way.  Every
    (circuit, device, level, seed) combination must still produce the exact
    same pass trace and the exact same compiled circuit — including now that
    the schedules are registry-resolved pure-data specs.
    """

    @pytest.mark.parametrize("case", _golden_cases(), ids=_case_id)
    def test_trace_and_circuit_match_golden(self, case):
        family, width = case["circuit"].rsplit("_", 1)
        circuit = benchmark_circuit(family, int(width))
        device = get_device(case["device"])
        manager = preset_pass_manager(
            case["style"], case["level"], iterate=case.get("iterate", False)
        )
        compiled, trace = run_preset_manager(manager, circuit, device, seed=case["seed"])
        assert trace == case["trace"]
        assert compiled.fingerprint() == case["fingerprint"]
        assert dict(sorted(compiled.count_ops().items())) == case["ops"]
        assert compiled.depth() == case["depth"]


class TestBaselineQuality:
    def test_optimized_levels_reasonable_fidelity_small_circuit(self, washington):
        circuit = benchmark_circuit("ghz", 4)
        qiskit, _ = qiskit_pipeline(circuit, washington, optimization_level=3)
        tket, _ = tket_pipeline(circuit, washington, optimization_level=2)
        assert expected_fidelity(qiskit, washington) > 0.5
        assert expected_fidelity(tket, washington) > 0.5

    def test_both_baselines_compile_whole_small_suite(self, washington):
        from repro.bench import benchmark_suite

        for circuit in benchmark_suite(3, 4, step=1, names=["dj", "qaoa", "ae", "qftentangled"]):
            q, _ = qiskit_pipeline(circuit, washington, optimization_level=3)
            t, _ = tket_pipeline(circuit, washington, optimization_level=2)
            assert washington.is_executable(q)
            assert washington.is_executable(t)
