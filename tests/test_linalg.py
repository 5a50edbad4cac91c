"""Unit tests for unitary utilities and 1q/2q decompositions."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import unitary_group

from repro.circuit import Gate, Instruction, QuantumCircuit
from repro.circuit.gates import gate_matrix
from repro.linalg import (
    allclose_up_to_global_phase,
    circuit_unitary,
    cnot_count_required,
    decompose_2q,
    emit_2q,
    embed_unitary,
    global_phase_between,
    instruction_unitary,
    is_unitary_matrix,
    kron_factor,
    synthesize_1q,
    synthesize_2q,
    u3_angles,
    weyl_decompose,
    zyz_angles,
)


def _random_unitary(dim: int, seed: int) -> np.ndarray:
    return unitary_group.rvs(dim, random_state=np.random.default_rng(seed))


class TestUnitaryUtilities:
    def test_is_unitary_matrix(self):
        assert is_unitary_matrix(gate_matrix(Gate("h")))
        assert not is_unitary_matrix(np.array([[1, 0], [1, 1]], dtype=complex))
        assert not is_unitary_matrix(np.ones((2, 3)))

    def test_embed_single_qubit_gate(self):
        x_on_1 = embed_unitary(gate_matrix(Gate("x")), (1,), 2)
        expected = np.kron(np.eye(2), gate_matrix(Gate("x")))
        assert np.allclose(x_on_1, expected)

    def test_embed_respects_qubit_order(self):
        # CX with control=1, target=0 differs from control=0, target=1.
        cx_10 = embed_unitary(gate_matrix(Gate("cx")), (1, 0), 2)
        cx_01 = embed_unitary(gate_matrix(Gate("cx")), (0, 1), 2)
        assert not np.allclose(cx_10, cx_01)
        swap = gate_matrix(Gate("swap"))
        assert np.allclose(swap @ cx_01 @ swap, cx_10)

    def test_embed_refuses_large_systems(self):
        with pytest.raises(ValueError, match="refusing"):
            embed_unitary(gate_matrix(Gate("x")), (0,), 20)

    def test_instruction_unitary_measure_rejected(self):
        with pytest.raises(ValueError):
            instruction_unitary(Instruction(Gate("measure"), (0,)), 1)

    def test_circuit_unitary_matches_manual_product(self, bell_circuit):
        manual = embed_unitary(gate_matrix(Gate("cx")), (0, 1), 2) @ embed_unitary(
            gate_matrix(Gate("h")), (0,), 2
        )
        assert np.allclose(circuit_unitary(bell_circuit), manual)

    def test_global_phase_between(self):
        matrix = gate_matrix(Gate("h"))
        phase = np.exp(1j * 0.7)
        assert np.isclose(global_phase_between(phase * matrix, matrix), phase)
        assert global_phase_between(gate_matrix(Gate("x")), matrix) is None

    def test_allclose_up_to_global_phase(self):
        matrix = _random_unitary(4, 0)
        assert allclose_up_to_global_phase(np.exp(1j * 1.3) * matrix, matrix)
        assert not allclose_up_to_global_phase(matrix, _random_unitary(4, 1))


class TestOneQubitDecompositions:
    @pytest.mark.parametrize("seed", range(8))
    def test_u3_angles_reconstruct(self, seed):
        matrix = _random_unitary(2, seed)
        theta, phi, lam, phase = u3_angles(matrix)
        reconstructed = np.exp(1j * phase) * gate_matrix(Gate("u", (theta, phi, lam)))
        assert np.allclose(reconstructed, matrix, atol=1e-7)

    @pytest.mark.parametrize("seed", range(8))
    def test_zyz_angles_reconstruct(self, seed):
        matrix = _random_unitary(2, seed + 100)
        theta, phi, lam, phase = zyz_angles(matrix)
        reconstructed = (
            np.exp(1j * phase)
            * gate_matrix(Gate("rz", (phi,)))
            @ gate_matrix(Gate("ry", (theta,)))
            @ gate_matrix(Gate("rz", (lam,)))
        )
        assert np.allclose(reconstructed, matrix, atol=1e-7)

    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry", "u3"])
    @pytest.mark.parametrize("seed", range(6))
    def test_synthesize_1q_exact(self, basis, seed):
        matrix = _random_unitary(2, 10 * seed + 3)
        decomp = synthesize_1q(matrix, basis)
        assert np.allclose(decomp.matrix(), matrix, atol=1e-6)

    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry"])
    def test_synthesize_1q_special_gates_short(self, basis):
        # Diagonal gates should synthesise to a single RZ.
        decomp = synthesize_1q(gate_matrix(Gate("t")), basis)
        assert len(decomp.gates) == 1
        assert decomp.gates[0].name == "rz"

    def test_synthesize_1q_identity_is_empty(self):
        decomp = synthesize_1q(np.eye(2), "rz_sx")
        assert len(decomp.gates) == 0

    def test_synthesize_1q_basis_gates_only(self):
        decomp = synthesize_1q(_random_unitary(2, 77), "rz_sx")
        assert set(g.name for g in decomp.gates) <= {"rz", "sx"}

    def test_unknown_basis_raises(self):
        with pytest.raises(ValueError):
            synthesize_1q(np.eye(2), "weird_basis")


class TestKronFactor:
    def test_factorable(self):
        a, b = _random_unitary(2, 1), _random_unitary(2, 2)
        result = kron_factor(np.kron(a, b))
        assert result is not None
        fa, fb, phase = result
        assert allclose_up_to_global_phase(np.kron(fa, fb), np.kron(a, b))

    def test_entangling_not_factorable(self):
        assert kron_factor(gate_matrix(Gate("cx"))) is None

    def test_phase_is_tracked(self):
        a, b = gate_matrix(Gate("h")), gate_matrix(Gate("s"))
        target = np.exp(1j * 0.3) * np.kron(a, b)
        fa, fb, phase = kron_factor(target)
        assert np.allclose(np.exp(1j * phase) * np.kron(fa, fb), target)


class TestWeylDecomposition:
    @pytest.mark.parametrize("seed", range(10))
    def test_random_unitaries_reconstruct(self, seed):
        matrix = _random_unitary(4, 200 + seed)
        decomp = weyl_decompose(matrix)
        assert np.allclose(decomp.matrix(), matrix, atol=1e-5)

    @pytest.mark.parametrize(
        "gate_name", ["cx", "cz", "swap", "iswap", "ecr", "ch"]
    )
    def test_named_gates_reconstruct(self, gate_name):
        matrix = gate_matrix(Gate(gate_name))
        decomp = weyl_decompose(matrix)
        assert allclose_up_to_global_phase(decomp.matrix(), matrix)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            weyl_decompose(np.eye(2))


class TestCnotCount:
    def test_local_gate_needs_zero(self):
        assert cnot_count_required(np.kron(gate_matrix(Gate("h")), gate_matrix(Gate("t")))) == 0

    def test_cx_class_needs_one(self):
        assert cnot_count_required(gate_matrix(Gate("cx"))) == 1
        assert cnot_count_required(gate_matrix(Gate("cz"))) == 1
        assert cnot_count_required(gate_matrix(Gate("ecr"))) == 1

    def test_iswap_class_needs_two(self):
        assert cnot_count_required(gate_matrix(Gate("iswap"))) == 2

    def test_swap_needs_three(self):
        assert cnot_count_required(gate_matrix(Gate("swap"))) == 3

    def test_generic_unitary_needs_at_most_three(self):
        count = cnot_count_required(_random_unitary(4, 5))
        assert count == 3

    def test_partial_entangler_needs_two(self):
        assert cnot_count_required(gate_matrix(Gate("rzz", (0.3,)))) == 2


class TestTwoQubitSynthesis:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_unitary_exact(self, seed):
        matrix = _random_unitary(4, 300 + seed)
        ops, _phase = synthesize_2q(matrix)
        circuit = QuantumCircuit(2)
        for gate, qubits in ops:
            circuit.append(gate, qubits)
        assert allclose_up_to_global_phase(circuit_unitary(circuit), matrix)

    def test_local_unitary_uses_no_cx(self):
        matrix = np.kron(_random_unitary(2, 1), _random_unitary(2, 2))
        ops, _ = synthesize_2q(matrix)
        assert all(len(qubits) == 1 for _, qubits in ops)

    def test_cx_costs_at_most_two_entanglers(self):
        ops, _ = synthesize_2q(gate_matrix(Gate("cx")))
        two_qubit = [gate for gate, qubits in ops if len(qubits) == 2]
        assert len(two_qubit) <= 2

    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry"])
    def test_alternative_1q_bases(self, basis):
        matrix = _random_unitary(4, 99)
        ops, _ = synthesize_2q(matrix, basis_1q=basis)
        circuit = QuantumCircuit(2)
        for gate, qubits in ops:
            circuit.append(gate, qubits)
        assert allclose_up_to_global_phase(circuit_unitary(circuit), matrix)


#: the two-qubit matrices the tests above decompose or synthesise
_TWO_QUBIT_MATRICES = {
    **{f"random{seed}": (lambda seed=seed: _random_unitary(4, seed))
       for seed in (5, 99, *range(200, 210), *range(300, 308))},
    "local": lambda: np.kron(_random_unitary(2, 1), _random_unitary(2, 2)),
    "h_t": lambda: np.kron(gate_matrix(Gate("h")), gate_matrix(Gate("t"))),
    **{name: (lambda name=name: gate_matrix(Gate(name)))
       for name in ("cx", "cz", "swap", "iswap", "ecr", "ch")},
    "rzz": lambda: gate_matrix(Gate("rzz", (0.3,))),
}


class TestTwoStepSynthesis:
    """``synthesize_2q`` is ``emit_2q(decompose_2q(...))``, to the bit."""

    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry", "u3"])
    @pytest.mark.parametrize("name", sorted(_TWO_QUBIT_MATRICES))
    def test_emit_of_decompose_equals_synthesize(self, name, basis):
        matrix = _TWO_QUBIT_MATRICES[name]()
        ops, phase = synthesize_2q(matrix, basis_1q=basis)
        decomposition = decompose_2q(matrix)
        two_step_ops, two_step_phase = emit_2q(decomposition, basis_1q=basis)
        assert two_step_ops == ops
        assert two_step_phase == phase
        assert decomposition.num_cx == sum(1 for _, qubits in ops if len(qubits) == 2)

    def test_local_operator_prices_at_zero(self):
        decomposition = decompose_2q(_TWO_QUBIT_MATRICES["local"]())
        assert decomposition.weyl is None and decomposition.num_cx == 0

    def test_generic_operator_prices_at_six(self):
        # The emitter's count, not the optimal bound of cnot_count_required (3).
        decomposition = decompose_2q(_random_unitary(4, 5))
        assert decomposition.num_cx == 6
        assert cnot_count_required(_random_unitary(4, 5)) == 3
