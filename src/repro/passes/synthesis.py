"""Synthesis passes: translating circuits to a device's native gate set.

The central pass is :class:`BasisTranslator` (modelled after Qiskit's pass of
the same name).  It works in three stages:

1. multi-qubit gates (Toffoli, CCZ, Fredkin) are decomposed into CX + 1q
   gates using fixed, verified decomposition rules;
2. two-qubit gates are decomposed into CX + 1q gates (named rules where they
   exist, an exact Weyl-based synthesis as a fallback), and CX is then
   rewritten into the device's native entangling gate (CZ, ECR or RXX) using
   pre-computed local Clifford corrections;
3. remaining non-native single-qubit gates are re-emitted in the device's
   native 1q basis: a parameterless gate (``h``, ``s``, ``t``, ``sx``, ...)
   takes its native gates from the fixed table that
   :func:`~repro.linalg.decompositions.native_1q_gates` reads, built once at
   import; a gate with parameters runs the exact Euler decomposition.

Every rule used here is verified against gate matrices in the test-suite.
"""

from __future__ import annotations

import math

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.gates import GATE_SPECS, Gate, Instruction, gate_inverse, gate_matrix
from ..devices.device import NativeGateSet
from ..linalg.decompositions import native_1q_gates, synthesize_2q, zyz_angles
from .base import PassContext
from .registry import SynthesisPass, register_pass

__all__ = [
    "BasisTranslator",
    "decompose_to_cx_basis",
    "controlled_u_instructions",
    "CX_CONVERSION_RULES",
]


# ---------------------------------------------------------------------------
# Verified decomposition building blocks
# ---------------------------------------------------------------------------


def controlled_u_instructions(
    matrix: np.ndarray, control: int, target: int
) -> list[Instruction]:
    """Exact decomposition of controlled-``matrix`` into CX and 1q rotations.

    Uses the standard ABC construction: with ``U = e^{i a} Rz(phi) Ry(theta) Rz(lam)``,
    the controlled version is ``P(a) x [A . X . B . X . C]`` with suitable A, B, C.
    """
    theta, phi, lam, alpha = zyz_angles(matrix)
    ops: list[Instruction] = []

    def add(name: str, qubits: list[int], params: tuple[float, ...] = ()) -> None:
        ops.append(Instruction(Gate(name, params), tuple(qubits)))

    add("rz", [target], ((lam - phi) / 2.0,))
    add("cx", [control, target])
    add("rz", [target], (-(phi + lam) / 2.0,))
    add("ry", [target], (-theta / 2.0,))
    add("cx", [control, target])
    add("ry", [target], (theta / 2.0,))
    add("rz", [target], (phi,))
    if abs(alpha) > 1e-12:
        add("p", [control], (alpha,))
    return [op for op in ops if not _is_trivial_rotation(op)]


def _is_trivial_rotation(instruction: Instruction) -> bool:
    if instruction.name in ("rz", "ry", "rx", "p") and abs(instruction.params[0]) < 1e-12:
        return True
    return False


def _instrs(spec: list[tuple[str, list[int], tuple[float, ...]]]) -> list[Instruction]:
    return [Instruction(Gate(name, params), tuple(qubits)) for name, qubits, params in spec]


def _decompose_named_2q(instruction: Instruction) -> list[Instruction] | None:
    """Named CX+1q decomposition rules for common two-qubit gates."""
    a, b = instruction.qubits
    name = instruction.name
    params = instruction.params
    if name == "cz":
        return _instrs([("h", [b], ()), ("cx", [a, b], ()), ("h", [b], ())])
    if name == "cy":
        return _instrs([("sdg", [b], ()), ("cx", [a, b], ()), ("s", [b], ())])
    if name == "swap":
        return _instrs([("cx", [a, b], ()), ("cx", [b, a], ()), ("cx", [a, b], ())])
    if name == "iswap":
        return _instrs(
            [
                ("s", [a], ()),
                ("s", [b], ()),
                ("h", [a], ()),
                ("cx", [a, b], ()),
                ("cx", [b, a], ()),
                ("h", [b], ()),
            ]
        )
    if name == "rzz":
        (theta,) = params
        return _instrs([("cx", [a, b], ()), ("rz", [b], (theta,)), ("cx", [a, b], ())])
    if name == "rzx":
        (theta,) = params
        return _instrs(
            [
                ("h", [b], ()),
                ("cx", [a, b], ()),
                ("rz", [b], (theta,)),
                ("cx", [a, b], ()),
                ("h", [b], ()),
            ]
        )
    if name == "rxx":
        (theta,) = params
        return _instrs(
            [
                ("h", [a], ()),
                ("h", [b], ()),
                ("cx", [a, b], ()),
                ("rz", [b], (theta,)),
                ("cx", [a, b], ()),
                ("h", [a], ()),
                ("h", [b], ()),
            ]
        )
    if name == "ryy":
        (theta,) = params
        return _instrs(
            [
                ("rx", [a], (math.pi / 2,)),
                ("rx", [b], (math.pi / 2,)),
                ("cx", [a, b], ()),
                ("rz", [b], (theta,)),
                ("cx", [a, b], ()),
                ("rx", [a], (-math.pi / 2,)),
                ("rx", [b], (-math.pi / 2,)),
            ]
        )
    if name in ("cp", "crx", "cry", "crz", "ch", "csx", "cu"):
        if name == "cu":
            theta, phi, lam, gamma = params
            matrix = np.exp(1j * gamma) * gate_matrix(Gate("u", (theta, phi, lam)))
        else:
            base_name = {"cp": "p", "crx": "rx", "cry": "ry", "crz": "rz", "ch": "h", "csx": "sx"}[name]
            matrix = gate_matrix(Gate(base_name, params))
        return controlled_u_instructions(matrix, a, b)
    return None


def _decompose_named_3q(instruction: Instruction) -> list[Instruction] | None:
    """Verified decompositions for the supported three-qubit gates."""
    name = instruction.name
    if name == "ccx":
        a, b, c = instruction.qubits
        return _instrs(
            [
                ("h", [c], ()),
                ("cx", [b, c], ()),
                ("tdg", [c], ()),
                ("cx", [a, c], ()),
                ("t", [c], ()),
                ("cx", [b, c], ()),
                ("tdg", [c], ()),
                ("cx", [a, c], ()),
                ("t", [b], ()),
                ("t", [c], ()),
                ("h", [c], ()),
                ("cx", [a, b], ()),
                ("t", [a], ()),
                ("tdg", [b], ()),
                ("cx", [a, b], ()),
            ]
        )
    if name == "ccz":
        a, b, c = instruction.qubits
        inner = _decompose_named_3q(Instruction(Gate("ccx"), (a, b, c)))
        return _instrs([("h", [c], ())]) + inner + _instrs([("h", [c], ())])
    if name == "cswap":
        a, b, c = instruction.qubits
        inner = _decompose_named_3q(Instruction(Gate("ccx"), (a, b, c)))
        return _instrs([("cx", [c, b], ())]) + inner + _instrs([("cx", [c, b], ())])
    return None


def _generic_2q_decomposition(instruction: Instruction) -> list[Instruction]:
    """Exact Weyl-based fallback for any unitary two-qubit gate."""
    matrix = gate_matrix(instruction.gate)
    ops, _phase = synthesize_2q(matrix)
    local = {0: instruction.qubits[0], 1: instruction.qubits[1]}
    return [Instruction(gate, tuple(local[q] for q in qubits)) for gate, qubits in ops]


# Local Clifford corrections expressing CX in terms of other native entangling
# gates: CX(c, t) = [pre gates] native(c, t) [post gates].  The gate words were
# found by exhaustive search over the single-qubit Clifford group and are
# verified in tests/test_passes_synthesis.py.
CX_CONVERSION_RULES: dict[str, dict[str, list[tuple[str, str]]]] = {
    "cz": {
        "pre": [("h", "target")],
        "post": [("h", "target")],
    },
    "ecr": {
        "pre": [
            ("s", "control"),
            ("h", "control"),
            ("h", "target"),
            ("s", "target"),
            ("h", "target"),
            ("s", "target"),
            ("s", "target"),
            ("h", "target"),
        ],
        "post": [("h", "control"), ("h", "target")],
    },
    "rxx": {
        "pre": [
            ("h", "control"),
            ("s", "control"),
            ("h", "control"),
            ("s", "control"),
            ("s", "target"),
            ("h", "target"),
            ("s", "target"),
        ],
        "post": [("h", "control")],
    },
}


def _cx_to_native(instruction: Instruction, gate_set: NativeGateSet) -> list[Instruction]:
    """Rewrite a CX instruction using the device's native entangling gate."""
    if "cx" in gate_set.two_qubit:
        return [instruction]
    control, target = instruction.qubits
    for native in gate_set.two_qubit:
        if native not in CX_CONVERSION_RULES:
            continue
        rule = CX_CONVERSION_RULES[native]
        qubit_of = {"control": control, "target": target}
        ops = [
            Instruction(Gate(name), (qubit_of[role],)) for name, role in rule["pre"]
        ]
        if native == "rxx":
            ops.append(Instruction(Gate("rxx", (math.pi / 2,)), (control, target)))
        else:
            ops.append(Instruction(Gate(native), (control, target)))
        ops.extend(
            Instruction(Gate(name), (qubit_of[role],)) for name, role in rule["post"]
        )
        return ops
    raise ValueError(
        f"no CX conversion rule for native two-qubit gates {gate_set.two_qubit}"
    )


def decompose_to_cx_basis(
    circuit: QuantumCircuit, *, keep: frozenset[str] = frozenset()
) -> QuantumCircuit:
    """Decompose every multi-qubit gate into CX + single-qubit gates.

    Two-qubit gates whose name appears in ``keep`` (e.g. the device's native
    entangling gate) are left untouched.
    """
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    out.metadata = dict(circuit.metadata)
    pending = list(circuit)
    while pending:
        instr = pending.pop(0)
        if instr.name in ("barrier", "measure", "reset") or not instr.gate.is_unitary:
            out._instructions.append(instr)
            continue
        if len(instr.qubits) >= 3:
            replacement = _decompose_named_3q(instr)
            if replacement is None:
                raise ValueError(f"cannot decompose {instr.name!r}")
            pending = replacement + pending
            continue
        if len(instr.qubits) == 2 and instr.name != "cx" and instr.name not in keep:
            replacement = _decompose_named_2q(instr)
            if replacement is None:
                replacement = _generic_2q_decomposition(instr)
            pending = replacement + pending
            continue
        out._instructions.append(instr)
    return out


# ---------------------------------------------------------------------------
# The BasisTranslator pass
# ---------------------------------------------------------------------------


class BasisTranslator(SynthesisPass):
    """Translate a circuit into the selected device's native gate set.

    This is the Synthesis action of the compilation MDP (Qiskit's
    ``BasisTranslator`` in the paper's instantiation).
    """

    name = "basis_translator"
    origin = "qiskit"
    requires_device = True

    def run(self, circuit: QuantumCircuit, context: PassContext) -> QuantumCircuit:
        device = context.require_device()
        gate_set = device.gate_set
        staged = decompose_to_cx_basis(circuit, keep=frozenset(gate_set.two_qubit))

        out = QuantumCircuit(staged.num_qubits, staged.num_clbits, staged.name)
        out.metadata = dict(staged.metadata)
        for instr in staged:
            if instr.name in ("barrier", "measure", "reset") or not instr.gate.is_unitary:
                out._instructions.append(instr)
                continue
            if len(instr.qubits) == 2 and instr.name == "cx":
                for native_instr in _cx_to_native(instr, gate_set):
                    if len(native_instr.qubits) == 2 or gate_set.is_native(native_instr.name):
                        out._instructions.append(native_instr)
                    else:
                        out.extend(self._translate_1q(native_instr, gate_set))
                continue
            if gate_set.is_native(instr.name):
                out._instructions.append(instr)
            else:
                out.extend(self._translate_1q(instr, gate_set))
        return out

    @staticmethod
    def _translate_1q(instruction: Instruction, gate_set: NativeGateSet) -> list[Instruction]:
        qubit = instruction.qubits[0]
        return [
            Instruction(gate, (qubit,))
            for gate in native_1q_gates(instruction.gate, gate_set.basis_1q)
        ]


register_pass(BasisTranslator.name, BasisTranslator, overwrite=True)
