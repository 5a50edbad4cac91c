"""Unit tests for the reward functions."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.api.result import score_circuit
from repro.bench import benchmark_circuit
from repro.circuit import QuantumCircuit
from repro.compilers import preset_pass_manager, run_preset_manager
from repro.devices import get_device
from repro.reward import (
    REWARD_FUNCTIONS,
    combined_reward,
    critical_depth_reward,
    expected_fidelity,
    functions,
    reward_function,
)

_GOLDEN_PATH = Path(__file__).parent / "golden" / "preset_traces.json"


def _golden_outputs():
    """The compiled circuit and device of every golden preset case."""
    for case in json.loads(_GOLDEN_PATH.read_text()):
        family, width = case["circuit"].rsplit("_", 1)
        device = get_device(case["device"])
        manager = preset_pass_manager(
            case["style"], case["level"], iterate=case.get("iterate", False)
        )
        compiled, _ = run_preset_manager(
            manager, benchmark_circuit(family, int(width)), device, seed=case["seed"]
        )
        yield compiled, device


@pytest.fixture
def native_chain(montreal):
    """A small native circuit on connected qubits of ibmq_montreal."""
    a, b = montreal.coupling_map.edges[0]
    circuit = QuantumCircuit(montreal.num_qubits)
    circuit.sx(a)
    circuit.cx(a, b)
    circuit.measure(a, 0)
    circuit.measure(b, 1)
    return circuit


class TestExpectedFidelity:
    def test_in_unit_interval(self, native_chain, montreal):
        value = expected_fidelity(native_chain, montreal)
        assert 0.0 < value < 1.0

    def test_empty_circuit_has_fidelity_one(self, montreal):
        assert expected_fidelity(QuantumCircuit(2), montreal) == pytest.approx(1.0)

    def test_more_gates_lower_fidelity(self, montreal):
        a, b = montreal.coupling_map.edges[0]
        short = QuantumCircuit(montreal.num_qubits)
        short.cx(a, b)
        long = short.copy()
        for _ in range(10):
            long.cx(a, b)
        assert expected_fidelity(long, montreal) < expected_fidelity(short, montreal)

    def test_two_qubit_gates_cost_more_than_single(self, montreal):
        a, b = montreal.coupling_map.edges[0]
        single = QuantumCircuit(montreal.num_qubits)
        single.sx(a)
        double = QuantumCircuit(montreal.num_qubits)
        double.cx(a, b)
        assert expected_fidelity(double, montreal) < expected_fidelity(single, montreal)

    def test_unmeasured_circuit_counts_active_qubits(self, montreal):
        a, b = montreal.coupling_map.edges[0]
        unmeasured = QuantumCircuit(montreal.num_qubits)
        unmeasured.cx(a, b)
        measured = unmeasured.copy()
        measured.measure(a, 0)
        measured.measure(b, 1)
        assert expected_fidelity(unmeasured, montreal) == pytest.approx(
            expected_fidelity(measured, montreal)
        )

    def test_devices_rank_by_error_rates(self):
        # The same two-qubit circuit should have higher fidelity on IonQ
        # (low errors) than on Rigetti (high errors).
        ionq = get_device("ionq_harmony")
        rigetti = get_device("rigetti_aspen_m2")
        circuit_ionq = QuantumCircuit(ionq.num_qubits)
        circuit_ionq.rxx(0.5, 0, 1)
        a, b = rigetti.coupling_map.edges[0]
        circuit_rigetti = QuantumCircuit(rigetti.num_qubits)
        circuit_rigetti.cz(a, b)
        assert expected_fidelity(circuit_ionq, ionq) > expected_fidelity(circuit_rigetti, rigetti)

    def test_barrier_and_id_do_not_affect_fidelity(self, montreal):
        a, b = montreal.coupling_map.edges[0]
        plain = QuantumCircuit(montreal.num_qubits)
        plain.cx(a, b)
        noisy = QuantumCircuit(montreal.num_qubits)
        noisy.cx(a, b)
        noisy.barrier()
        noisy.i(a)
        assert expected_fidelity(plain, montreal) == pytest.approx(
            expected_fidelity(noisy, montreal)
        )


class TestCriticalDepthReward:
    def test_sequential_chain_scores_zero(self, montreal):
        circuit = QuantumCircuit(5)
        for q in range(4):
            circuit.cx(q, q + 1)
        assert critical_depth_reward(circuit, montreal) == pytest.approx(0.0)

    def test_parallel_gates_score_higher(self, montreal):
        circuit = QuantumCircuit(4)
        circuit.cx(0, 1)
        circuit.cx(2, 3)
        assert critical_depth_reward(circuit, montreal) == pytest.approx(0.5)

    def test_no_two_qubit_gates_scores_one(self, montreal):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        assert critical_depth_reward(circuit, montreal) == pytest.approx(1.0)

    def test_device_argument_optional(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        assert critical_depth_reward(circuit) == pytest.approx(0.0)


class TestCombinedReward:
    def test_is_mean_of_both(self, native_chain, montreal):
        combined = combined_reward(native_chain, montreal)
        expected = 0.5 * (
            expected_fidelity(native_chain, montreal)
            + critical_depth_reward(native_chain, montreal)
        )
        assert combined == pytest.approx(expected)

    def test_in_unit_interval(self, native_chain, montreal):
        assert 0.0 <= combined_reward(native_chain, montreal) <= 1.0


class TestRegistry:
    def test_three_rewards_registered(self):
        assert set(REWARD_FUNCTIONS) == {"fidelity", "critical_depth", "combination"}

    def test_lookup(self):
        assert reward_function("fidelity") is expected_fidelity

    def test_unknown_reward_raises(self):
        with pytest.raises(KeyError):
            reward_function("speed")


class TestScoreCircuit:
    def test_equals_every_reward_function_on_the_golden_corpus(self):
        scored = 0
        for compiled, device in _golden_outputs():
            scores = score_circuit(compiled, device)
            reference = {
                name: float(fn(compiled, device)) for name, fn in REWARD_FUNCTIONS.items()
            }
            assert list(scores) == list(reference)
            assert scores == reference
            scored += 1
        assert scored == len(json.loads(_GOLDEN_PATH.read_text()))

    def test_walks_the_critical_path_once(self, native_chain, montreal, monkeypatch):
        calls = []
        real = functions.critical_depth

        def counting(circuit):
            calls.append(circuit)
            return real(circuit)

        monkeypatch.setattr(functions, "critical_depth", counting)
        for expected_calls in (1, 2, 3):
            score_circuit(native_chain, montreal)
            assert len(calls) == expected_calls
