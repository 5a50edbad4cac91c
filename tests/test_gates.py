"""Unit tests for the gate library."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.circuit.gates import (
    GATE_SPECS,
    Gate,
    Instruction,
    gate_inverse,
    gate_matrix,
    is_supported_gate,
    standard_gate_names,
)
from repro.linalg import allclose_up_to_global_phase, is_unitary_matrix

_UNITARY_GATES = [name for name, spec in GATE_SPECS.items() if spec.matrix_fn is not None]


def _example_gate(name: str) -> Gate:
    spec = GATE_SPECS[name]
    params = tuple(0.3 + 0.2 * i for i in range(spec.num_params))
    return Gate(name, params)


class TestGateSpecs:
    @pytest.mark.parametrize("name", _UNITARY_GATES)
    def test_matrix_is_unitary(self, name):
        gate = _example_gate(name)
        assert is_unitary_matrix(gate_matrix(gate))

    @pytest.mark.parametrize("name", _UNITARY_GATES)
    def test_matrix_dimension_matches_qubits(self, name):
        gate = _example_gate(name)
        matrix = gate_matrix(gate)
        assert matrix.shape == (2**gate.num_qubits, 2**gate.num_qubits)

    @pytest.mark.parametrize("name", _UNITARY_GATES)
    def test_diagonal_flag_is_consistent(self, name):
        gate = _example_gate(name)
        spec = GATE_SPECS[name]
        matrix = gate_matrix(gate)
        off_diagonal = matrix - np.diag(np.diag(matrix))
        if spec.diagonal:
            assert np.allclose(off_diagonal, 0)

    @pytest.mark.parametrize("name", _UNITARY_GATES)
    def test_self_inverse_flag_is_consistent(self, name):
        spec = GATE_SPECS[name]
        if not spec.self_inverse or spec.num_params:
            pytest.skip("not a parameter-free self-inverse gate")
        matrix = gate_matrix(Gate(name))
        assert allclose_up_to_global_phase(matrix @ matrix, np.eye(matrix.shape[0]))

    @pytest.mark.parametrize("name", _UNITARY_GATES)
    def test_symmetric_flag_is_consistent(self, name):
        spec = GATE_SPECS[name]
        if spec.num_qubits != 2 or not spec.symmetric:
            pytest.skip("not a symmetric two-qubit gate")
        gate = _example_gate(name)
        matrix = gate_matrix(gate)
        swap = gate_matrix(Gate("swap"))
        assert np.allclose(swap @ matrix @ swap, matrix)

    def test_standard_gate_names_excludes_non_unitary(self):
        names = standard_gate_names()
        assert "measure" not in names
        assert "barrier" not in names
        assert "cx" in names and "h" in names

    def test_is_supported_gate(self):
        assert is_supported_gate("cx")
        assert not is_supported_gate("not_a_gate")


class TestGateObject:
    def test_unknown_gate_raises(self):
        with pytest.raises(ValueError, match="unknown gate"):
            Gate("foobar")

    def test_wrong_parameter_count_raises(self):
        with pytest.raises(ValueError, match="expects 1 parameters"):
            Gate("rz")
        with pytest.raises(ValueError, match="expects 0 parameters"):
            Gate("x", (0.1,))

    def test_params_are_floats(self):
        gate = Gate("rz", (1,))
        assert isinstance(gate.params[0], float)

    def test_num_qubits_property(self):
        assert Gate("ccx").num_qubits == 3
        assert Gate("cx").num_qubits == 2
        assert Gate("h").num_qubits == 1

    def test_measure_is_not_unitary(self):
        assert not Gate("measure").is_unitary
        with pytest.raises(ValueError):
            Gate("measure").matrix()


class TestGateInverse:
    @pytest.mark.parametrize("name", _UNITARY_GATES)
    def test_inverse_matrix_is_actual_inverse(self, name):
        gate = _example_gate(name)
        inverse = gate_inverse(gate)
        product = gate_matrix(inverse) @ gate_matrix(gate)
        assert allclose_up_to_global_phase(product, np.eye(product.shape[0]))

    def test_named_inverse_pairs(self):
        assert gate_inverse(Gate("s")).name == "sdg"
        assert gate_inverse(Gate("tdg")).name == "t"
        assert gate_inverse(Gate("sx")).name == "sxdg"

    def test_rotation_inverse_negates_angle(self):
        inverse = gate_inverse(Gate("rz", (0.7,)))
        assert inverse.name == "rz"
        assert inverse.params == (-0.7,)

    def test_measure_has_no_inverse(self):
        with pytest.raises(ValueError):
            gate_inverse(Gate("measure"))


class TestInstruction:
    def test_qubit_count_validation(self):
        with pytest.raises(ValueError, match="acts on 2 qubits"):
            Instruction(Gate("cx"), (0,))

    def test_duplicate_qubits_rejected(self):
        with pytest.raises(ValueError, match="duplicate qubits"):
            Instruction(Gate("cx"), (1, 1))

    def test_remap(self):
        instr = Instruction(Gate("cx"), (0, 1))
        remapped = instr.remap({0: 5, 1: 3})
        assert remapped.qubits == (5, 3)
        assert remapped.gate == instr.gate

    def test_params_shortcut(self):
        instr = Instruction(Gate("rz", (0.25,)), (2,))
        assert instr.params == (0.25,)
        assert instr.name == "rz"

    def test_barrier_allows_any_width(self):
        instr = Instruction(Gate("barrier"), (0, 1, 2, 3))
        assert len(instr.qubits) == 4


class TestConstructorChecks:
    """What ``Gate`` and ``Instruction`` accept, convert and reject."""

    def test_numpy_scalars_become_python_numbers(self):
        gate = Gate("rz", (np.float32(0.5),))
        assert type(gate.params[0]) is float and gate.params == (0.5,)
        instr = Instruction(Gate("measure"), (np.int64(2),), (np.int32(1),))
        assert instr.qubits == (2,) and instr.clbits == (1,)
        assert type(instr.qubits[0]) is int and type(instr.clbits[0]) is int

    def test_numpy_arrays_are_accepted(self):
        gate = Gate("u", np.array([0.1, 0.2, 0.3]))
        assert gate.params == (0.1, 0.2, 0.3)
        assert all(type(p) is float for p in gate.params)
        assert Gate("h", np.array([])).params == ()
        instr = Instruction(Gate("cx"), np.array([3, 1]), np.array([], dtype=int))
        assert instr.qubits == (3, 1) and instr.clbits == ()
        assert all(type(q) is int for q in instr.qubits)

    def test_lists_and_iterators_become_tuples(self):
        assert Gate("rx", [1]).params == (1.0,)
        instr = Instruction(Gate("cx"), iter([0, 2]), [0])
        assert instr.qubits == (0, 2) and instr.clbits == (0,)

    @pytest.mark.parametrize(
        "build, message",
        [
            (lambda: Gate("foobar"), "unknown gate type: 'foobar'"),
            (lambda: Gate("rz"), "gate 'rz' expects 1 parameters, got 0"),
            (lambda: Gate("x", (0.1,)), "gate 'x' expects 0 parameters, got 1"),
            (lambda: Gate("u", np.array([0.1, 0.2])), "gate 'u' expects 3 parameters, got 2"),
            (lambda: Instruction(Gate("cx"), (0,)), "gate 'cx' acts on 2 qubits, got 1"),
            (lambda: Instruction(Gate("h"), (0, 1)), "gate 'h' acts on 1 qubits, got 2"),
            (lambda: Instruction(Gate("h"), ()), "gate 'h' acts on 1 qubits, got 0"),
            (lambda: Instruction(Gate("cx"), (1, 1)), "duplicate qubits in instruction: (1, 1)"),
            (
                lambda: Instruction(Gate("ccx"), np.array([0, 2, 0])),
                "duplicate qubits in instruction: (0, 2, 0)",
            ),
            (
                lambda: Instruction(Gate("barrier"), (4, 4)),
                "duplicate qubits in instruction: (4, 4)",
            ),
        ],
    )
    def test_rejections_keep_their_text(self, build, message):
        with pytest.raises(ValueError) as info:
            build()
        assert str(info.value) == message

    @pytest.mark.parametrize("width", [0, 1, 2, 5])
    def test_barrier_takes_any_qubit_count(self, width):
        instr = Instruction(Gate("barrier"), tuple(range(width)))
        assert instr.qubits == tuple(range(width))


class TestSpecificMatrices:
    def test_hadamard(self):
        h = gate_matrix(Gate("h"))
        expected = np.array([[1, 1], [1, -1]]) / math.sqrt(2)
        assert np.allclose(h, expected)

    def test_cx_action_on_basis(self):
        cx = gate_matrix(Gate("cx"))
        # |10> -> |11> with qubit 0 (control) most significant
        state = np.zeros(4)
        state[2] = 1.0
        assert np.allclose(cx @ state, np.eye(4)[3])

    def test_swap_action(self):
        swap = gate_matrix(Gate("swap"))
        state = np.zeros(4)
        state[1] = 1.0  # |01>
        assert np.allclose(swap @ state, np.eye(4)[2])  # |10>

    def test_rz_is_diagonal_phase(self):
        rz = gate_matrix(Gate("rz", (math.pi,)))
        assert np.allclose(np.abs(np.diag(rz)), 1.0)
        assert np.allclose(rz[0, 1], 0.0)

    def test_ccx_flips_target_when_controls_set(self):
        ccx = gate_matrix(Gate("ccx"))
        state = np.zeros(8)
        state[6] = 1.0  # |110>
        assert np.allclose(ccx @ state, np.eye(8)[7])  # |111>

    def test_u_gate_matches_composition(self):
        theta, phi, lam = 0.4, 1.1, -0.3
        u = gate_matrix(Gate("u", (theta, phi, lam)))
        composed = (
            gate_matrix(Gate("rz", (phi,)))
            @ gate_matrix(Gate("ry", (theta,)))
            @ gate_matrix(Gate("rz", (lam,)))
        )
        assert allclose_up_to_global_phase(u, composed)
