"""Unit tests for the synthesis passes (BasisTranslator and decomposition rules)."""

from __future__ import annotations

import dataclasses
import itertools

import numpy as np
import pytest
from scipy.stats import unitary_group

from repro.circuit import Gate, Instruction, QuantumCircuit, random_circuit
from repro.circuit.gates import GATE_SPECS, gate_matrix
from repro.devices import NativeGateSet, get_device, list_devices
from repro.linalg import allclose_up_to_global_phase, circuit_unitary, decompositions
from repro.linalg.decompositions import _FIXED_1Q_NATIVE, native_1q_gates, synthesize_1q
from repro.passes import BasisTranslator, PassContext, SabreSwap, TrivialLayout, decompose_to_cx_basis
from repro.passes.routing import _nativize_1q
from repro.passes.synthesis import (
    CX_CONVERSION_RULES,
    _decompose_named_2q,
    _decompose_named_3q,
    controlled_u_instructions,
)

_TWO_QUBIT_NAMED = [
    Instruction(Gate("cz"), (0, 1)),
    Instruction(Gate("cy"), (0, 1)),
    Instruction(Gate("ch"), (0, 1)),
    Instruction(Gate("swap"), (0, 1)),
    Instruction(Gate("iswap"), (0, 1)),
    Instruction(Gate("cp", (0.4,)), (0, 1)),
    Instruction(Gate("crx", (0.7,)), (0, 1)),
    Instruction(Gate("cry", (1.2,)), (0, 1)),
    Instruction(Gate("crz", (-0.9,)), (0, 1)),
    Instruction(Gate("cu", (0.4, 0.3, -0.2, 0.5)), (0, 1)),
    Instruction(Gate("csx"), (0, 1)),
    Instruction(Gate("rxx", (0.8,)), (0, 1)),
    Instruction(Gate("ryy", (0.8,)), (0, 1)),
    Instruction(Gate("rzz", (0.8,)), (0, 1)),
    Instruction(Gate("rzx", (0.8,)), (0, 1)),
]

_THREE_QUBIT_NAMED = [
    Instruction(Gate("ccx"), (0, 1, 2)),
    Instruction(Gate("ccz"), (0, 1, 2)),
    Instruction(Gate("cswap"), (0, 1, 2)),
]


def _instructions_unitary(instructions, num_qubits):
    circuit = QuantumCircuit(num_qubits)
    for instr in instructions:
        circuit.append_instruction(instr)
    return circuit_unitary(circuit)


class TestDecompositionRules:
    @pytest.mark.parametrize("instruction", _TWO_QUBIT_NAMED, ids=lambda i: i.name)
    def test_named_2q_rules_are_exact(self, instruction):
        rule = _decompose_named_2q(instruction)
        assert rule is not None
        assert all(len(i.qubits) <= 2 for i in rule)
        assert all(i.name == "cx" or len(i.qubits) == 1 for i in rule)
        original = _instructions_unitary([instruction], 2)
        decomposed = _instructions_unitary(rule, 2)
        assert allclose_up_to_global_phase(decomposed, original)

    @pytest.mark.parametrize("instruction", _THREE_QUBIT_NAMED, ids=lambda i: i.name)
    def test_named_3q_rules_are_exact(self, instruction):
        rule = _decompose_named_3q(instruction)
        assert rule is not None
        assert all(len(i.qubits) <= 2 for i in rule)
        original = _instructions_unitary([instruction], 3)
        decomposed = _instructions_unitary(rule, 3)
        assert allclose_up_to_global_phase(decomposed, original)

    @pytest.mark.parametrize("seed", range(5))
    def test_controlled_u_generic(self, seed):
        matrix = unitary_group.rvs(2, random_state=np.random.default_rng(seed))
        controlled = np.eye(4, dtype=complex)
        controlled[2:, 2:] = matrix
        instructions = controlled_u_instructions(matrix, 0, 1)
        assert np.allclose(_instructions_unitary(instructions, 2), controlled, atol=1e-7)

    def test_controlled_u_reversed_qubits(self):
        matrix = gate_matrix(Gate("h"))
        instructions = controlled_u_instructions(matrix, 1, 0)
        expected = _instructions_unitary([Instruction(Gate("ch"), (1, 0))], 2)
        assert allclose_up_to_global_phase(_instructions_unitary(instructions, 2), expected)

    @pytest.mark.parametrize("native", sorted(CX_CONVERSION_RULES))
    def test_cx_conversion_rules_are_exact(self, native):
        rule = CX_CONVERSION_RULES[native]
        circuit = QuantumCircuit(2)
        for name, role in rule["pre"]:
            circuit.append(name, [0 if role == "control" else 1])
        if native == "rxx":
            circuit.rxx(np.pi / 2, 0, 1)
        else:
            circuit.append(native, [0, 1])
        for name, role in rule["post"]:
            circuit.append(name, [0 if role == "control" else 1])
        assert allclose_up_to_global_phase(circuit_unitary(circuit), gate_matrix(Gate("cx")))


class TestDecomposeToCxBasis:
    def test_output_only_cx_and_1q(self):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        circuit.swap(0, 2)
        circuit.cp(0.3, 1, 2)
        out = decompose_to_cx_basis(circuit)
        for instr in out:
            assert len(instr.qubits) == 1 or instr.name == "cx"

    def test_unitary_preserved(self):
        circuit = random_circuit(3, 6, seed=5)
        circuit.ccx(0, 1, 2)
        out = decompose_to_cx_basis(circuit)
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    def test_keep_set_preserves_gates(self):
        circuit = QuantumCircuit(2)
        circuit.cz(0, 1)
        out = decompose_to_cx_basis(circuit, keep=frozenset({"cz"}))
        assert out.count_ops()["cz"] == 1

    def test_measure_and_barrier_pass_through(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        circuit.barrier()
        circuit.measure_all()
        out = decompose_to_cx_basis(circuit)
        assert out.count_ops()["measure"] == 2
        assert out.count_ops()["barrier"] == 1


class TestBasisTranslator:
    @pytest.mark.parametrize("device_name", list_devices())
    @pytest.mark.parametrize("seed", range(3))
    def test_translates_to_native_and_preserves_unitary(self, device_name, seed):
        device = get_device(device_name)
        circuit = random_circuit(3, 5, seed=seed)
        out = BasisTranslator().run(circuit, PassContext(device=device))
        assert device.gates_native(out)
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    @pytest.mark.parametrize("device_name", list_devices())
    def test_handles_three_qubit_gates(self, device_name):
        device = get_device(device_name)
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        out = BasisTranslator().run(circuit, PassContext(device=device))
        assert device.gates_native(out)
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    def test_requires_device(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        with pytest.raises(ValueError, match="requires a target device"):
            BasisTranslator().run(circuit, PassContext())

    def test_native_circuit_is_unchanged_in_gate_count(self, montreal):
        circuit = QuantumCircuit(2)
        circuit.rz(0.4, 0)
        circuit.sx(0)
        circuit.cx(0, 1)
        out = BasisTranslator().run(circuit, PassContext(device=montreal))
        assert out.count_ops() == circuit.count_ops()

    def test_measurements_survive_translation(self, montreal):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.measure_all()
        out = BasisTranslator().run(circuit, PassContext(device=montreal))
        assert out.count_ops()["measure"] == 2

    def test_ionq_parametrised_rxx_kept(self):
        device = get_device("ionq_harmony")
        circuit = QuantumCircuit(2)
        circuit.rxx(0.37, 0, 1)
        out = BasisTranslator().run(circuit, PassContext(device=device))
        assert "rxx" in out.gate_names()
        assert device.gates_native(out)


_FIXED_1Q = ("id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg")
_BASES_1Q = ("rz_sx", "rz_rx", "rz_ry", "u3")
#: one device of each gate set: IBM, Rigetti, IonQ, OQC
_GATE_SET_DEVICES = ("ibmq_montreal", "rigetti_aspen_m2", "ionq_harmony", "oqc_lucy")


def _fixed_gate_corpus(num_qubits: int = 4) -> QuantumCircuit:
    """Every fixed 1q gate on every wire, a few parameterised gates and CXs."""
    circuit = QuantumCircuit(num_qubits)
    for layer in range(3):
        for q in range(num_qubits):
            for name in ("h", "s", "t", "sx", "x", _FIXED_1Q[(layer + q) % len(_FIXED_1Q)]):
                circuit.append(Gate(name), (q,))
            circuit.cx(q, (q + 1 + layer) % num_qubits)
    circuit.rx(0.3, 0)
    circuit.ry(0.7, 1)
    circuit.p(0.2, 2)
    circuit.u(0.1, 0.2, 0.3, 3)
    circuit.rz(0.5, 0)
    return circuit


def _parameterised_non_native(circuit: QuantumCircuit, gate_set: NativeGateSet) -> int:
    return sum(
        1
        for instr in circuit
        if len(instr.qubits) == 1 and instr.params and not gate_set.is_native(instr.name)
    )


@pytest.fixture
def synthesis_calls(monkeypatch):
    """Count ``synthesize_1q`` runs, by basis, for the rest of the test."""
    calls: list[str] = []
    real = decompositions.synthesize_1q

    def counting(matrix, basis="rz_sx"):
        calls.append(basis)
        return real(matrix, basis)

    monkeypatch.setattr(decompositions, "synthesize_1q", counting)
    return calls


class TestFixedGateTable:
    def test_table_holds_every_fixed_gate_in_every_basis(self):
        assert set(_FIXED_1Q_NATIVE) == set(itertools.product(_FIXED_1Q, _BASES_1Q))

    @pytest.mark.parametrize("basis", _BASES_1Q)
    @pytest.mark.parametrize("name", _FIXED_1Q)
    def test_entry_equals_the_synthesis_reference(self, name, basis):
        gate = Gate(name)
        reference = synthesize_1q(gate_matrix(gate), basis).gates
        assert _FIXED_1Q_NATIVE[(name, basis)] == reference
        assert native_1q_gates(gate, basis) == reference

    def test_table_is_read_only(self):
        with pytest.raises(TypeError):
            _FIXED_1Q_NATIVE[("h", "rz_sx")] = ()

    @pytest.mark.parametrize("basis", _BASES_1Q)
    def test_parameterised_gates_are_synthesised(self, basis, synthesis_calls):
        gate = Gate("u", (0.4, -1.1, 2.3))
        # The reference runs the import-bound function, so only the helper's
        # call is counted.
        assert native_1q_gates(gate, basis) == synthesize_1q(gate_matrix(gate), basis).gates
        assert synthesis_calls == [basis]

    @pytest.mark.parametrize("device_name", _GATE_SET_DEVICES)
    def test_translation_synthesises_only_parameterised_gates(
        self, device_name, synthesis_calls
    ):
        device = get_device(device_name)
        circuit = _fixed_gate_corpus()
        out = BasisTranslator().run(circuit, PassContext(device=device))
        assert synthesis_calls == [device.gate_set.basis_1q] * _parameterised_non_native(
            circuit, device.gate_set
        )
        assert synthesis_calls  # the corpus does reach the synthesis fallback
        assert device.gates_native(out)
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    @pytest.mark.parametrize("device_name", _GATE_SET_DEVICES)
    def test_nativize_synthesises_only_parameterised_gates(self, device_name, synthesis_calls):
        device = get_device(device_name)
        circuit = _fixed_gate_corpus()
        out = _nativize_1q(circuit, device)
        assert len(synthesis_calls) == _parameterised_non_native(circuit, device.gate_set)
        assert all(device.gate_set.is_native(i.name) for i in out if len(i.qubits) == 1)
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    @pytest.mark.parametrize("device_name", _GATE_SET_DEVICES)
    def test_routing_synthesises_nothing_for_its_swap_corrections(
        self, device_name, synthesis_calls
    ):
        # On the CZ and ECR devices the expanded SWAPs carry H/S corrections
        # that _nativize_1q translates; the CX devices and IonQ's all-to-all
        # coupling never reach it.
        device = get_device(device_name)
        context = PassContext(device=device, seed=3)
        native = BasisTranslator().run(_fixed_gate_corpus(6), context)
        placed = TrivialLayout().run(native, context)
        synthesis_calls.clear()
        routed = SabreSwap(seed=3).run(placed, context)
        assert synthesis_calls == []
        assert device.gates_native(routed)
        assert device.mapping_satisfied(routed)

    def test_unknown_basis_still_raises_on_translate(self):
        base = get_device("ibmq_montreal")
        device = dataclasses.replace(
            base, gate_set=dataclasses.replace(base.gate_set, basis_1q="zxz")
        )
        circuit = QuantumCircuit(1)
        circuit.h(0)
        with pytest.raises(ValueError, match="unknown single-qubit basis 'zxz'"):
            BasisTranslator().run(circuit, PassContext(device=device))
