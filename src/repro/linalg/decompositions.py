"""Single- and two-qubit unitary decompositions.

The 1q Euler decompositions drive ``Optimize1qGatesDecomposition`` (fusing a
run of single-qubit gates and re-emitting it in a device's native basis),
and the 2q Weyl (KAK) decomposition drives ``ConsolidateBlocks`` and the
TKET-style peephole passes (fusing a two-qubit block and re-synthesising it
when the fused operator needs fewer entangling gates).  Two-qubit synthesis
comes in two steps: :func:`decompose_2q` settles the CX count and
:func:`emit_2q` builds the single-qubit gates around it, so the block
passes price a block before building its replacement;
:func:`synthesize_2q` runs both.

All decompositions are *exact up to global phase* and are verified against
the original matrix before being returned, so callers can trust the output
even in numerically degenerate corners.
"""

from __future__ import annotations

import cmath
import math
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from ..circuit.gates import GATE_SPECS, Gate, gate_matrix
from .unitaries import allclose_up_to_global_phase

__all__ = [
    "OneQubitDecomposition",
    "u3_angles",
    "zyz_angles",
    "synthesize_1q",
    "native_1q_gates",
    "kron_factor",
    "WeylDecomposition",
    "weyl_decompose",
    "cnot_count_required",
    "TwoQubitDecomposition",
    "decompose_2q",
    "emit_2q",
    "synthesize_2q",
]

_ATOL = 1e-9


# ---------------------------------------------------------------------------
# Single-qubit decompositions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OneQubitDecomposition:
    """Result of a single-qubit Euler decomposition."""

    gates: tuple[Gate, ...]
    global_phase: float

    def matrix(self) -> np.ndarray:
        total = np.eye(2, dtype=complex)
        for gate in self.gates:
            total = gate_matrix(gate) @ total
        return cmath.exp(1j * self.global_phase) * total


def _to_su2(matrix: np.ndarray) -> tuple[np.ndarray, float]:
    """Rescale a 2x2 unitary to determinant one; return (su2, phase)."""
    det = np.linalg.det(matrix)
    phase = cmath.phase(det) / 2.0
    return matrix * cmath.exp(-1j * phase), phase


def u3_angles(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """Return ``(theta, phi, lam, phase)`` with ``matrix = e^{i phase} U3(theta, phi, lam)``."""
    su, phase = _to_su2(np.asarray(matrix, dtype=complex))
    theta = 2.0 * math.atan2(abs(su[1, 0]), abs(su[0, 0]))
    if abs(su[0, 0]) < _ATOL:
        phi_plus_lam = 0.0
        phi_minus_lam = 2.0 * cmath.phase(su[1, 0])
    elif abs(su[1, 0]) < _ATOL:
        phi_plus_lam = 2.0 * cmath.phase(su[1, 1])
        phi_minus_lam = 0.0
    else:
        phi_plus_lam = 2.0 * cmath.phase(su[1, 1])
        phi_minus_lam = 2.0 * cmath.phase(su[1, 0])
    phi = (phi_plus_lam + phi_minus_lam) / 2.0
    lam = (phi_plus_lam - phi_minus_lam) / 2.0
    # U3(theta, phi, lam) = e^{i(phi+lam)/2} Rz(phi) Ry(theta) Rz(lam); the SU(2)
    # part above equals Rz(phi) Ry(theta) Rz(lam), so correct the phase.
    total_phase = phase - (phi + lam) / 2.0
    reconstructed = cmath.exp(1j * total_phase) * gate_matrix(Gate("u", (theta, phi, lam)))
    if not np.allclose(reconstructed, matrix, atol=1e-7):
        # Fall back to a direct phase fit against the largest element.
        u3 = gate_matrix(Gate("u", (theta, phi, lam)))
        idx = np.unravel_index(np.argmax(np.abs(u3)), u3.shape)
        total_phase = cmath.phase(matrix[idx] / u3[idx])
    return theta, phi, lam, total_phase


def zyz_angles(matrix: np.ndarray) -> tuple[float, float, float, float]:
    """Return ``(theta, phi, lam, phase)`` with ``matrix = e^{i phase} Rz(phi) Ry(theta) Rz(lam)``."""
    theta, phi, lam, phase = u3_angles(matrix)
    return theta, phi, lam, phase + (phi + lam) / 2.0


def _candidate_matrix(gates: list[Gate]) -> np.ndarray:
    total = np.eye(2, dtype=complex)
    for gate in gates:
        total = gate_matrix(gate) @ total
    return total


def synthesize_1q(matrix: np.ndarray, basis: str = "rz_sx") -> OneQubitDecomposition:
    """Decompose a single-qubit unitary into gates from ``basis``.

    Supported bases:
      * ``"rz_sx"`` — IBM/OQC style: RZ and SX (ZXZXZ Euler form).
      * ``"rz_rx"`` — Rigetti style: RZ and RX(±pi/2).
      * ``"rz_ry"`` — IonQ style: RZ and RY (ZYZ Euler form).
      * ``"u3"``    — a single U gate.

    Gates whose angles vanish are dropped, and shorter candidate forms (one
    RZ, or RZ-SX-RZ) are used whenever they reproduce the matrix.
    """
    matrix = np.asarray(matrix, dtype=complex)
    theta, phi, lam, phase = u3_angles(matrix)

    if basis == "u3":
        gates = [Gate("u", (theta, phi, lam))]
        return OneQubitDecomposition(tuple(gates), phase)

    if basis == "rz_ry":
        candidates = [
            _drop_trivial([Gate("rz", (phi + lam,))]),
            _drop_trivial([Gate("rz", (lam,)), Gate("ry", (theta,)), Gate("rz", (phi,))]),
        ]
        for gates in candidates:
            product = _candidate_matrix(gates)
            if allclose_up_to_global_phase(product, matrix, tol=1e-7):
                return OneQubitDecomposition(tuple(gates), _phase_between(matrix, product))
        raise RuntimeError("single-qubit synthesis failed to verify (numerical issue)")

    if basis in ("rz_sx", "rz_rx"):
        sx_gate = Gate("sx") if basis == "rz_sx" else Gate("rx", (math.pi / 2,))
        candidates: list[list[Gate]] = []
        # theta ~ 0: a single RZ suffices.
        candidates.append(_drop_trivial([Gate("rz", (phi + lam,))]))
        # theta ~ pi/2 region: RZ - SX - RZ.
        candidates.append(
            _drop_trivial(
                [Gate("rz", (lam - math.pi / 2,)), sx_gate, Gate("rz", (phi + math.pi / 2,))]
            )
        )
        # General ZXZXZ form.
        candidates.append(
            _drop_trivial(
                [
                    Gate("rz", (lam,)),
                    sx_gate,
                    Gate("rz", (theta + math.pi,)),
                    sx_gate,
                    Gate("rz", (phi + math.pi,)),
                ]
            )
        )
        for gates in candidates:
            product = _candidate_matrix(gates)
            if allclose_up_to_global_phase(product, matrix, tol=1e-7):
                phase_fix = _phase_between(matrix, product)
                return OneQubitDecomposition(tuple(gates), phase_fix)
        raise RuntimeError("single-qubit synthesis failed to verify (numerical issue)")

    raise ValueError(f"unknown single-qubit basis {basis!r}")


def _drop_trivial(gates: list[Gate]) -> list[Gate]:
    """Remove rotation gates whose angle is a multiple of 2*pi."""
    out = []
    for gate in gates:
        if gate.name in ("rz", "rx", "ry", "p") and abs(_mod_2pi(gate.params[0])) < 1e-10:
            continue
        out.append(gate)
    return out


def _mod_2pi(angle: float) -> float:
    """Map an angle to the interval (-pi, pi]."""
    wrapped = math.fmod(angle, 2 * math.pi)
    if wrapped > math.pi:
        wrapped -= 2 * math.pi
    elif wrapped <= -math.pi:
        wrapped += 2 * math.pi
    return wrapped


def _phase_between(target: np.ndarray, product: np.ndarray) -> float:
    idx = np.unravel_index(np.argmax(np.abs(product)), product.shape)
    return cmath.phase(target[idx] / product[idx])


#: native gates of every parameterless single-qubit gate in every basis,
#: keyed ``(gate name, basis)``.  The answer for such a gate never changes,
#: so the translation passes look it up here instead of re-running (and
#: re-verifying) the Euler synthesis for every ``h`` they meet.  Each entry
#: is the verified ``synthesize_1q`` output on the gate's interned matrix,
#: computed once at import; the values are tuples of frozen gates and the
#: mapping is read-only.
_FIXED_1Q_NATIVE: Mapping[tuple[str, str], tuple[Gate, ...]] = MappingProxyType(
    {
        (name, basis): synthesize_1q(gate_matrix(Gate(name)), basis).gates
        for name, spec in GATE_SPECS.items()
        if spec.num_qubits == 1 and spec.num_params == 0 and spec.matrix_fn is not None
        for basis in ("rz_sx", "rz_rx", "rz_ry", "u3")
    }
)


def native_1q_gates(gate: Gate, basis: str) -> tuple[Gate, ...]:
    """The gates from ``basis`` that implement single-qubit ``gate``, up to global phase.

    A parameterless gate is looked up in the fixed table; a gate with
    parameters, or a basis the table does not hold, runs ``synthesize_1q``
    (so an unknown basis raises its ``ValueError``).  Either way the result
    equals ``synthesize_1q(gate_matrix(gate), basis).gates``; the global
    phase is dropped.
    """
    native = _FIXED_1Q_NATIVE.get((gate.name, basis))
    if native is not None:
        return native
    return synthesize_1q(gate_matrix(gate), basis).gates


# ---------------------------------------------------------------------------
# Two-qubit decompositions
# ---------------------------------------------------------------------------

_MAGIC = (1.0 / math.sqrt(2.0)) * np.array(
    [
        [1, 0, 0, 1j],
        [0, 1j, 1, 0],
        [0, 1j, -1, 0],
        [1, 0, 0, -1j],
    ],
    dtype=complex,
)

_XX = np.kron(gate_matrix(Gate("x")), gate_matrix(Gate("x")))
_YY = np.kron(gate_matrix(Gate("y")), gate_matrix(Gate("y")))
_ZZ = np.kron(gate_matrix(Gate("z")), gate_matrix(Gate("z")))

# Diagonals of XX / YY / ZZ in the magic basis (all three are diagonal there).
_DIAG_XX = np.real(np.diag(_MAGIC.conj().T @ _XX @ _MAGIC))
_DIAG_YY = np.real(np.diag(_MAGIC.conj().T @ _YY @ _MAGIC))
_DIAG_ZZ = np.real(np.diag(_MAGIC.conj().T @ _ZZ @ _MAGIC))


def kron_factor(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray, float] | None:
    """Factor a 4x4 unitary as ``e^{i phase} A (x) B`` if possible.

    Returns ``(A, B, phase)`` with A, B unitary 2x2 matrices, or ``None`` if
    the operator is entangling.
    """
    matrix = np.asarray(matrix, dtype=complex)
    # Rearrange so that a Kronecker product becomes a rank-1 matrix.
    rearranged = np.zeros((4, 4), dtype=complex)
    for i in range(2):
        for j in range(2):
            block = matrix[2 * i : 2 * i + 2, 2 * j : 2 * j + 2]
            rearranged[2 * i + j, :] = block.reshape(4)
    u, s, vh = np.linalg.svd(rearranged)
    if s[1] > 1e-7:
        return None
    a = u[:, 0].reshape(2, 2) * math.sqrt(s[0])
    b = vh[0, :].reshape(2, 2) * math.sqrt(s[0])
    # Normalise both factors to unitaries.
    det_a = np.linalg.det(a)
    det_b = np.linalg.det(b)
    if abs(det_a) < 1e-12 or abs(det_b) < 1e-12:
        return None
    a = a / cmath.sqrt(det_a)
    b = b / cmath.sqrt(det_b)
    product = np.kron(a, b)
    idx = np.unravel_index(np.argmax(np.abs(product)), product.shape)
    phase = cmath.phase(matrix[idx] / product[idx])
    if not np.allclose(cmath.exp(1j * phase) * product, matrix, atol=1e-6):
        return None
    return a, b, phase


@dataclass(frozen=True)
class WeylDecomposition:
    """KAK decomposition ``U = e^{i phase} (K1l (x) K1r) N(c) (K2l (x) K2r)``.

    ``N(c) = exp(i (c_x XX + c_y YY + c_z ZZ))`` is the canonical two-qubit
    interaction; K1/K2 are the single-qubit "local" factors.
    """

    k1l: np.ndarray
    k1r: np.ndarray
    k2l: np.ndarray
    k2r: np.ndarray
    c: tuple[float, float, float]
    global_phase: float

    def canonical_matrix(self) -> np.ndarray:
        generator = self.c[0] * _XX + self.c[1] * _YY + self.c[2] * _ZZ
        eigvals, eigvecs = np.linalg.eigh(generator)
        return eigvecs @ np.diag(np.exp(1j * eigvals)) @ eigvecs.conj().T

    def matrix(self) -> np.ndarray:
        return (
            cmath.exp(1j * self.global_phase)
            * np.kron(self.k1l, self.k1r)
            @ self.canonical_matrix()
            @ np.kron(self.k2l, self.k2r)
        )


def _orthogonal_diagonalize(m2: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Find a real orthogonal P with P^T M2 P diagonal (M2 unitary symmetric)."""
    re, im = np.real(m2), np.imag(m2)
    for _ in range(24):
        angle = rng.uniform(0, math.pi)
        combo = math.cos(angle) * re + math.sin(angle) * im
        _, p = np.linalg.eigh(combo)
        check = p.T @ m2 @ p
        if np.allclose(check - np.diag(np.diag(check)), 0, atol=1e-8):
            return p
    raise RuntimeError("failed to simultaneously diagonalise the Weyl matrix")


def weyl_decompose(matrix: np.ndarray, *, seed: int = 7) -> WeylDecomposition:
    """Compute the Weyl/KAK decomposition of a two-qubit unitary."""
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.shape != (4, 4):
        raise ValueError("weyl_decompose expects a 4x4 matrix")
    rng = np.random.default_rng(seed)

    det = np.linalg.det(matrix)
    global_phase = cmath.phase(det) / 4.0
    u_su = matrix * cmath.exp(-1j * global_phase)

    up = _MAGIC.conj().T @ u_su @ _MAGIC
    m2 = up.T @ up
    p = _orthogonal_diagonalize(m2, rng)
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] = -p[:, 0]
    d = np.diag(p.T @ m2 @ p)
    theta = np.angle(d) / 2.0

    d_half_inv = np.diag(np.exp(-1j * theta))
    q = up @ p @ d_half_inv
    if np.linalg.det(np.real(q)) < 0:
        theta = theta.copy()
        theta[0] += math.pi
        d_half_inv = np.diag(np.exp(-1j * theta))
        q = up @ p @ d_half_inv
    q = np.real(q)

    # Solve theta = c_x * DIAG_XX + c_y * DIAG_YY + c_z * DIAG_ZZ + c_0 * 1.
    basis = np.stack([_DIAG_XX, _DIAG_YY, _DIAG_ZZ, np.ones(4)], axis=1)
    coeffs, *_ = np.linalg.lstsq(basis, theta, rcond=None)
    cx, cy, cz, c0 = (float(v) for v in coeffs)

    k1 = _MAGIC @ q @ _MAGIC.conj().T
    k2 = _MAGIC @ p.T @ _MAGIC.conj().T

    f1 = kron_factor(k1)
    f2 = kron_factor(k2)
    if f1 is None or f2 is None:
        raise RuntimeError("Weyl local factors are not separable (numerical issue)")
    k1l, k1r, phase1 = f1
    k2l, k2r, phase2 = f2

    decomp = WeylDecomposition(
        k1l, k1r, k2l, k2r, (cx, cy, cz), global_phase + c0 + phase1 + phase2
    )
    reconstructed = decomp.matrix()
    if not allclose_up_to_global_phase(reconstructed, matrix, tol=1e-5):
        raise RuntimeError("Weyl decomposition failed verification")
    # Align the tracked phase exactly with the input matrix.
    correction = _phase_between(matrix, reconstructed * cmath.exp(-1j * decomp.global_phase))
    return WeylDecomposition(k1l, k1r, k2l, k2r, (cx, cy, cz), correction)


def _axis_class(value: float) -> str:
    """Classify a canonical coordinate modulo the pi/2 lattice."""
    reduced = math.fmod(value, math.pi / 2.0)
    if reduced < 0:
        reduced += math.pi / 2.0
    dist = min(reduced, math.pi / 2.0 - reduced)
    if dist < 1e-7:
        return "trivial"
    if abs(dist - math.pi / 4.0) < 1e-7:
        return "cnot"
    return "generic"


def cnot_count_required(matrix: np.ndarray) -> int:
    """Lower bound on the number of CNOTs needed to implement a 4x4 unitary.

    Uses the Weyl-chamber coordinates: 0 for local operators, 1 for the CNOT
    class, 2 when one coordinate is trivial, 3 otherwise.
    """
    if kron_factor(np.asarray(matrix, dtype=complex)) is not None:
        return 0
    decomp = weyl_decompose(matrix)
    classes = sorted(_axis_class(v) for v in decomp.c)
    nontrivial = [c for c in classes if c != "trivial"]
    if not nontrivial:
        return 0
    if nontrivial == ["cnot"]:
        return 1
    if len(nontrivial) <= 2:
        return 2
    return 3


def _emit_local(
    ops: list[tuple[Gate, tuple[int, ...]]], matrix: np.ndarray, qubit: int, basis: str
) -> float:
    """Append the synthesis of a local 2x2 unitary; return its global phase."""
    decomp = synthesize_1q(matrix, basis)
    for gate in decomp.gates:
        ops.append((gate, (qubit,)))
    return decomp.global_phase


@dataclass(frozen=True)
class TwoQubitDecomposition:
    """A two-qubit unitary taken apart for synthesis, before any 1q gate is built.

    Exactly one of ``local`` (``(A, B, phase)`` from :func:`kron_factor`) and
    ``weyl`` is set.  For a Weyl decomposition, ``canonical`` and
    ``canonical_phase`` hold the CX/1q emission of its interaction.
    ``num_cx`` is the exact number of CX gates :func:`emit_2q` will emit.
    """

    local: tuple[np.ndarray, np.ndarray, float] | None
    weyl: WeylDecomposition | None
    canonical: tuple[tuple[Gate, tuple[int, ...]], ...]
    canonical_phase: float
    num_cx: int


def decompose_2q(matrix: np.ndarray) -> TwoQubitDecomposition:
    """First step of :func:`synthesize_2q`: factor or Weyl-decompose ``matrix``.

    This is where the entangling cost is decided, so a caller can price a
    block by ``num_cx`` before paying for the four single-qubit syntheses of
    :func:`emit_2q`.  ``num_cx`` is the emitter's count (two CX per
    non-trivial canonical axis, none for a local operator or a ``±pi/2``
    axis), not the optimal bound of :func:`cnot_count_required`.  Raises
    ``RuntimeError`` where :func:`weyl_decompose` does.
    """
    matrix = np.asarray(matrix, dtype=complex)
    factored = kron_factor(matrix)
    if factored is not None:
        return TwoQubitDecomposition(factored, None, (), 0.0, 0)
    decomp = weyl_decompose(matrix)
    canonical, canonical_phase = _synthesize_canonical(decomp.c)
    num_cx = sum(1 for _, qubits in canonical if len(qubits) == 2)
    return TwoQubitDecomposition(None, decomp, tuple(canonical), canonical_phase, num_cx)


def emit_2q(
    decomposition: TwoQubitDecomposition, *, basis_1q: str = "rz_sx"
) -> tuple[list[tuple[Gate, tuple[int, ...]]], float]:
    """Second step of :func:`synthesize_2q`: build the gates of a decomposition.

    Runs :func:`synthesize_1q` on each local factor (two for a local
    operator, four around the canonical interaction) and returns
    ``(ops, global_phase)`` exactly as :func:`synthesize_2q` does.
    """
    ops: list[tuple[Gate, tuple[int, ...]]] = []
    if decomposition.weyl is None:
        a, b, phase = decomposition.local
        phase += _emit_local(ops, a, 0, basis_1q)
        phase += _emit_local(ops, b, 1, basis_1q)
        return ops, phase

    decomp = decomposition.weyl
    phase = decomp.global_phase
    phase += _emit_local(ops, decomp.k2l, 0, basis_1q)
    phase += _emit_local(ops, decomp.k2r, 1, basis_1q)
    ops.extend(decomposition.canonical)
    phase += decomposition.canonical_phase
    phase += _emit_local(ops, decomp.k1l, 0, basis_1q)
    phase += _emit_local(ops, decomp.k1r, 1, basis_1q)
    return ops, phase


def synthesize_2q(
    matrix: np.ndarray, *, basis_1q: str = "rz_sx"
) -> tuple[list[tuple[Gate, tuple[int, ...]]], float]:
    """Synthesise an arbitrary two-qubit unitary into CX + single-qubit gates.

    Returns ``(ops, global_phase)`` where each op is ``(gate, qubit_indices)``
    with indices in {0, 1} referring to the two qubits of ``matrix`` (qubit 0
    most significant).  The emitted sequence is exact up to global phase and
    uses two CX gates per non-trivial canonical axis (at most six), dropping
    axes whose interaction is trivial or purely local.  Equal to
    ``emit_2q(decompose_2q(matrix), basis_1q=basis_1q)``.
    """
    return emit_2q(decompose_2q(matrix), basis_1q=basis_1q)


def _synthesize_canonical(
    c: tuple[float, float, float]
) -> tuple[list[tuple[Gate, tuple[int, ...]]], float]:
    """Emit ``exp(i (c_x XX + c_y YY + c_z ZZ))`` as CX/1q gates (exact)."""
    ops: list[tuple[Gate, tuple[int, ...]]] = []
    phase = 0.0
    pauli_gate = {"x": Gate("x"), "y": Gate("y"), "z": Gate("z")}
    rotations = (("x", c[0]), ("y", c[1]), ("z", c[2]))
    for axis, value in rotations:
        reduced = _mod_2pi(value)
        if abs(reduced) < 1e-10:
            continue
        if abs(abs(reduced) - math.pi) < 1e-10:
            # exp(+-i pi P (x) P) = -I : a pure global phase.
            phase += math.pi
            continue
        if abs(abs(reduced) - math.pi / 2.0) < 1e-10:
            # exp(+-i pi/2 P (x) P) = +-i * P (x) P : a purely local operator.
            ops.append((pauli_gate[axis], (0,)))
            ops.append((pauli_gate[axis], (1,)))
            phase += math.copysign(math.pi / 2.0, reduced)
            continue
        theta = -2.0 * reduced  # exp(i c PP) == Rpp(-2c)
        if axis == "z":
            ops.append((Gate("cx"), (0, 1)))
            ops.append((Gate("rz", (theta,)), (1,)))
            ops.append((Gate("cx"), (0, 1)))
        elif axis == "x":
            ops.append((Gate("h"), (0,)))
            ops.append((Gate("h"), (1,)))
            ops.append((Gate("cx"), (0, 1)))
            ops.append((Gate("rz", (theta,)), (1,)))
            ops.append((Gate("cx"), (0, 1)))
            ops.append((Gate("h"), (0,)))
            ops.append((Gate("h"), (1,)))
        else:  # axis == "y"
            ops.append((Gate("rx", (math.pi / 2.0,)), (0,)))
            ops.append((Gate("rx", (math.pi / 2.0,)), (1,)))
            ops.append((Gate("cx"), (0, 1)))
            ops.append((Gate("rz", (theta,)), (1,)))
            ops.append((Gate("cx"), (0, 1)))
            ops.append((Gate("rx", (-math.pi / 2.0,)), (0,)))
            ops.append((Gate("rx", (-math.pi / 2.0,)), (1,)))
    return ops, phase
