"""Gate definitions for the quantum circuit intermediate representation.

Every gate used anywhere in the compiler (benchmark generators, equivalence
library, devices' native gate sets, optimization passes) is described here by
a :class:`GateSpec`.  The spec records structural metadata (qubit count,
parameter count, whether the gate is diagonal, Clifford, symmetric under
qubit exchange, ...) together with a matrix constructor, which is what the
verification utilities and the 1q/2q re-synthesis passes build on.

The actual object stored inside circuits is the lightweight :class:`Gate`
(name + parameters); an :class:`Instruction` binds a gate to concrete qubit
indices.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Gate",
    "GateSpec",
    "Instruction",
    "GATE_SPECS",
    "gate_matrix",
    "gate_inverse",
    "is_supported_gate",
    "standard_gate_names",
]


# ---------------------------------------------------------------------------
# Matrix constructors
# ---------------------------------------------------------------------------

_SQ2 = 1.0 / math.sqrt(2.0)


def _mat_id(_: Sequence[float]) -> np.ndarray:
    return np.eye(2, dtype=complex)


def _mat_x(_: Sequence[float]) -> np.ndarray:
    return np.array([[0, 1], [1, 0]], dtype=complex)


def _mat_y(_: Sequence[float]) -> np.ndarray:
    return np.array([[0, -1j], [1j, 0]], dtype=complex)


def _mat_z(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, -1]], dtype=complex)


def _mat_h(_: Sequence[float]) -> np.ndarray:
    return np.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex)


def _mat_s(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, 1j]], dtype=complex)


def _mat_sdg(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, -1j]], dtype=complex)


def _mat_t(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(1j * math.pi / 4)]], dtype=complex)


def _mat_tdg(_: Sequence[float]) -> np.ndarray:
    return np.array([[1, 0], [0, cmath.exp(-1j * math.pi / 4)]], dtype=complex)


def _mat_sx(_: Sequence[float]) -> np.ndarray:
    return 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)


def _mat_sxdg(_: Sequence[float]) -> np.ndarray:
    return 0.5 * np.array([[1 - 1j, 1 + 1j], [1 + 1j, 1 - 1j]], dtype=complex)


def _mat_rx(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -1j * s], [-1j * s, c]], dtype=complex)


def _mat_ry(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -s], [s, c]], dtype=complex)


def _mat_rz(params: Sequence[float]) -> np.ndarray:
    (phi,) = params
    return np.array(
        [[cmath.exp(-1j * phi / 2), 0], [0, cmath.exp(1j * phi / 2)]], dtype=complex
    )


def _mat_p(params: Sequence[float]) -> np.ndarray:
    (lam,) = params
    return np.array([[1, 0], [0, cmath.exp(1j * lam)]], dtype=complex)


def _mat_u(params: Sequence[float]) -> np.ndarray:
    theta, phi, lam = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -cmath.exp(1j * lam) * s],
            [cmath.exp(1j * phi) * s, cmath.exp(1j * (phi + lam)) * c],
        ],
        dtype=complex,
    )


def _mat_u1(params: Sequence[float]) -> np.ndarray:
    return _mat_p(params)


def _mat_u2(params: Sequence[float]) -> np.ndarray:
    phi, lam = params
    return _mat_u([math.pi / 2, phi, lam])


def _controlled(base: np.ndarray) -> np.ndarray:
    """Return the controlled version of a single-qubit matrix.

    Qubit ordering convention: qubit 0 of the instruction is the control and
    occupies the *most significant* position of the basis-state index, i.e.
    basis order is ``|q0 q1>``.
    """
    out = np.eye(4, dtype=complex)
    out[2:, 2:] = base
    return out


def _mat_cx(_: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_x(()))


def _mat_cy(_: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_y(()))


def _mat_cz(_: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_z(()))


def _mat_ch(_: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_h(()))


def _mat_cp(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_p(params))


def _mat_crx(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_rx(params))


def _mat_cry(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_ry(params))


def _mat_crz(params: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_rz(params))


def _mat_csx(_: Sequence[float]) -> np.ndarray:
    return _controlled(_mat_sx(()))


def _mat_cu(params: Sequence[float]) -> np.ndarray:
    theta, phi, lam, gamma = params
    return _controlled(cmath.exp(1j * gamma) * _mat_u([theta, phi, lam]))


def _mat_swap(_: Sequence[float]) -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _mat_iswap(_: Sequence[float]) -> np.ndarray:
    return np.array(
        [[1, 0, 0, 0], [0, 0, 1j, 0], [0, 1j, 0, 0], [0, 0, 0, 1]], dtype=complex
    )


def _mat_rxx(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, 0, 0, -1j * s],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [-1j * s, 0, 0, c],
        ],
        dtype=complex,
    )


def _mat_ryy(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, 0, 0, 1j * s],
            [0, c, -1j * s, 0],
            [0, -1j * s, c, 0],
            [1j * s, 0, 0, c],
        ],
        dtype=complex,
    )


def _mat_rzz(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    ep = cmath.exp(1j * theta / 2)
    em = cmath.exp(-1j * theta / 2)
    return np.diag([em, ep, ep, em]).astype(complex)


def _mat_rzx(params: Sequence[float]) -> np.ndarray:
    (theta,) = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [c, -1j * s, 0, 0],
            [-1j * s, c, 0, 0],
            [0, 0, c, 1j * s],
            [0, 0, 1j * s, c],
        ],
        dtype=complex,
    )


def _mat_ecr(_: Sequence[float]) -> np.ndarray:
    # Echoed cross-resonance gate: (IX - XY)/sqrt(2) propagator as used by IBM/OQC.
    return _SQ2 * np.array(
        [
            [0, 1, 0, 1j],
            [1, 0, -1j, 0],
            [0, 1j, 0, 1],
            [-1j, 0, 1, 0],
        ],
        dtype=complex,
    )


def _mat_xx_plus_yy(params: Sequence[float]) -> np.ndarray:
    theta, beta = params
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array(
        [
            [1, 0, 0, 0],
            [0, c, -1j * s * cmath.exp(-1j * beta), 0],
            [0, -1j * s * cmath.exp(1j * beta), c, 0],
            [0, 0, 0, 1],
        ],
        dtype=complex,
    )


def _mat_ccx(_: Sequence[float]) -> np.ndarray:
    out = np.eye(8, dtype=complex)
    out[6, 6] = out[7, 7] = 0
    out[6, 7] = out[7, 6] = 1
    return out


def _mat_ccz(_: Sequence[float]) -> np.ndarray:
    out = np.eye(8, dtype=complex)
    out[7, 7] = -1
    return out


def _mat_cswap(_: Sequence[float]) -> np.ndarray:
    out = np.eye(8, dtype=complex)
    # control is qubit 0 (most significant); swap basis states |101> and |110>
    out[5, 5] = out[6, 6] = 0
    out[5, 6] = out[6, 5] = 1
    return out


# ---------------------------------------------------------------------------
# Gate specifications
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GateSpec:
    """Static description of a gate type.

    Attributes:
        name: canonical lower-case gate name.
        num_qubits: how many qubits the gate acts on.
        num_params: how many real parameters the gate takes.
        matrix_fn: callable mapping the parameter tuple to a unitary matrix.
            ``None`` for non-unitary operations (measure, barrier, reset).
        self_inverse: the gate composed with itself is the identity.
        inverse_name: name of the inverse gate when it is a *different*
            parameter-free gate (e.g. ``s``/``sdg``).  Parametrised gates are
            inverted by negating parameters instead.
        diagonal: the matrix is diagonal in the computational basis.
        clifford: the (parameter-free) gate is a Clifford operation.
        symmetric: for two-qubit gates, invariant under qubit exchange.
    """

    name: str
    num_qubits: int
    num_params: int
    matrix_fn: Callable[[Sequence[float]], np.ndarray] | None
    self_inverse: bool = False
    inverse_name: str | None = None
    diagonal: bool = False
    clifford: bool = False
    symmetric: bool = False


def _spec(name: str, nq: int, np_: int, fn, **kw) -> tuple[str, GateSpec]:
    return name, GateSpec(name, nq, np_, fn, **kw)


GATE_SPECS: dict[str, GateSpec] = dict(
    [
        # --- single-qubit, parameter-free ---
        _spec("id", 1, 0, _mat_id, self_inverse=True, diagonal=True, clifford=True),
        _spec("x", 1, 0, _mat_x, self_inverse=True, clifford=True),
        _spec("y", 1, 0, _mat_y, self_inverse=True, clifford=True),
        _spec("z", 1, 0, _mat_z, self_inverse=True, diagonal=True, clifford=True),
        _spec("h", 1, 0, _mat_h, self_inverse=True, clifford=True),
        _spec("s", 1, 0, _mat_s, inverse_name="sdg", diagonal=True, clifford=True),
        _spec("sdg", 1, 0, _mat_sdg, inverse_name="s", diagonal=True, clifford=True),
        _spec("t", 1, 0, _mat_t, inverse_name="tdg", diagonal=True),
        _spec("tdg", 1, 0, _mat_tdg, inverse_name="t", diagonal=True),
        _spec("sx", 1, 0, _mat_sx, inverse_name="sxdg", clifford=True),
        _spec("sxdg", 1, 0, _mat_sxdg, inverse_name="sx", clifford=True),
        # --- single-qubit, parametrised ---
        _spec("rx", 1, 1, _mat_rx),
        _spec("ry", 1, 1, _mat_ry),
        _spec("rz", 1, 1, _mat_rz, diagonal=True),
        _spec("p", 1, 1, _mat_p, diagonal=True),
        _spec("u1", 1, 1, _mat_u1, diagonal=True),
        _spec("u2", 1, 2, _mat_u2),
        _spec("u", 1, 3, _mat_u),
        _spec("u3", 1, 3, _mat_u),
        # --- two-qubit, parameter-free ---
        _spec("cx", 2, 0, _mat_cx, self_inverse=True, clifford=True),
        _spec("cy", 2, 0, _mat_cy, self_inverse=True, clifford=True),
        _spec(
            "cz", 2, 0, _mat_cz, self_inverse=True, diagonal=True, clifford=True,
            symmetric=True,
        ),
        _spec("ch", 2, 0, _mat_ch, self_inverse=True),
        _spec("swap", 2, 0, _mat_swap, self_inverse=True, clifford=True, symmetric=True),
        _spec("iswap", 2, 0, _mat_iswap, clifford=True, symmetric=True),
        _spec("ecr", 2, 0, _mat_ecr, self_inverse=True),
        # --- two-qubit, parametrised ---
        _spec("cp", 2, 1, _mat_cp, diagonal=True, symmetric=True),
        _spec("crx", 2, 1, _mat_crx),
        _spec("cry", 2, 1, _mat_cry),
        _spec("crz", 2, 1, _mat_crz),
        _spec("csx", 2, 0, _mat_csx, inverse_name=None),
        _spec("cu", 2, 4, _mat_cu),
        _spec("rxx", 2, 1, _mat_rxx, symmetric=True),
        _spec("ryy", 2, 1, _mat_ryy, symmetric=True),
        _spec("rzz", 2, 1, _mat_rzz, diagonal=True, symmetric=True),
        _spec("rzx", 2, 1, _mat_rzx),
        _spec("xx_plus_yy", 2, 2, _mat_xx_plus_yy),
        # --- three-qubit ---
        _spec("ccx", 3, 0, _mat_ccx, self_inverse=True),
        _spec("ccz", 3, 0, _mat_ccz, self_inverse=True, diagonal=True),
        _spec("cswap", 3, 0, _mat_cswap, self_inverse=True),
        # --- non-unitary / structural ---
        _spec("measure", 1, 0, None),
        _spec("reset", 1, 0, None),
        _spec("barrier", 0, 0, None),
    ]
)

_PARAM_INVERTIBLE = {
    "rx", "ry", "rz", "p", "u1", "cp", "crx", "cry", "crz", "rxx", "ryy", "rzz",
    "rzx",
}


def is_supported_gate(name: str) -> bool:
    """Return True if ``name`` is a known gate type."""
    return name in GATE_SPECS


def standard_gate_names() -> tuple[str, ...]:
    """Names of all unitary gates in the library."""
    return tuple(n for n, s in GATE_SPECS.items() if s.matrix_fn is not None)


# ---------------------------------------------------------------------------
# Gate and Instruction objects
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """A gate instance: a named operation with bound parameter values."""

    name: str
    params: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        # Hot: runs for every gate every pass builds.  Branch on len(), never
        # on truthiness: a numpy array is a valid ``params``.
        spec = GATE_SPECS.get(self.name)
        if spec is None:
            raise ValueError(f"unknown gate type: {self.name!r}")
        num_params = len(self.params)
        if num_params != spec.num_params and spec.name != "barrier":
            raise ValueError(
                f"gate {self.name!r} expects {spec.num_params} parameters, "
                f"got {num_params}"
            )
        object.__setattr__(self, "params", tuple(map(float, self.params)))

    @property
    def spec(self) -> GateSpec:
        return GATE_SPECS[self.name]

    @property
    def num_qubits(self) -> int:
        return self.spec.num_qubits

    @property
    def is_unitary(self) -> bool:
        return self.spec.matrix_fn is not None

    def matrix(self) -> np.ndarray:
        """Unitary matrix of the gate (raises for non-unitary operations)."""
        return gate_matrix(self)

    def inverse(self) -> "Gate":
        """Return the inverse gate (raises for non-unitary operations)."""
        return gate_inverse(self)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.params:
            args = ", ".join(f"{p:.6g}" for p in self.params)
            return f"{self.name}({args})"
        return self.name


@dataclass(frozen=True)
class Instruction:
    """A gate applied to concrete qubits (and, for measurements, a clbit)."""

    gate: Gate
    qubits: tuple[int, ...]
    clbits: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        # Hot: runs for every instruction every pass builds.  Branch on len(),
        # never on truthiness: a numpy array is a valid ``qubits``.
        qubits = tuple(map(int, self.qubits))
        object.__setattr__(self, "qubits", qubits)
        object.__setattr__(self, "clbits", tuple(map(int, self.clbits)))
        num_qubits = len(qubits)
        spec = GATE_SPECS[self.gate.name]
        if num_qubits != spec.num_qubits and spec.name != "barrier":
            raise ValueError(
                f"gate {self.gate.name!r} acts on {spec.num_qubits} qubits, "
                f"got {num_qubits}"
            )
        if num_qubits > 1 and len(set(qubits)) != num_qubits:
            raise ValueError(f"duplicate qubits in instruction: {qubits}")

    @property
    def name(self) -> str:
        return self.gate.name

    @property
    def params(self) -> tuple[float, ...]:
        return self.gate.params

    def remap(self, mapping: dict[int, int]) -> "Instruction":
        """Return a copy with qubit indices rewritten through ``mapping``."""
        return Instruction(
            self.gate, tuple(mapping[q] for q in self.qubits), self.clbits
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.gate!r} @ {list(self.qubits)}"


# ---------------------------------------------------------------------------
# Matrix / inverse helpers
# ---------------------------------------------------------------------------


#: interned matrices for parameterless gates.  ``gate_matrix("h")`` used to
#: rebuild the same 2x2 array on every call — once per gate per pass per
#: episode; the table makes it a dict lookup.  The cached arrays are marked
#: read-only so an accidental in-place edit raises instead of corrupting
#: every later lookup.
_INTERNED_MATRICES: dict[str, np.ndarray] = {}
for _name, _gspec in GATE_SPECS.items():
    if _gspec.matrix_fn is not None and _gspec.num_params == 0:
        _interned = _gspec.matrix_fn(())
        _interned.flags.writeable = False
        _INTERNED_MATRICES[_name] = _interned
del _name, _gspec, _interned


def gate_matrix(gate: Gate) -> np.ndarray:
    """Return the unitary matrix of ``gate`` in |q0 q1 ...> ordering.

    Parameterless gates return an interned read-only array; copy before
    mutating (no pass does — they only multiply).
    """
    cached = _INTERNED_MATRICES.get(gate.name)
    if cached is not None:
        return cached
    spec = gate.spec
    if spec.matrix_fn is None:
        raise ValueError(f"gate {gate.name!r} has no unitary matrix")
    return spec.matrix_fn(gate.params)


def gate_inverse(gate: Gate) -> Gate:
    """Return the gate implementing the inverse unitary of ``gate``."""
    spec = gate.spec
    if spec.matrix_fn is None:
        raise ValueError(f"gate {gate.name!r} is not invertible")
    if spec.self_inverse:
        return gate
    if spec.inverse_name is not None:
        return Gate(spec.inverse_name)
    if gate.name in _PARAM_INVERTIBLE:
        return Gate(gate.name, tuple(-p for p in gate.params))
    if gate.name in ("u", "u3"):
        theta, phi, lam = gate.params
        return Gate(gate.name, (-theta, -lam, -phi))
    if gate.name == "u2":
        phi, lam = gate.params
        return Gate("u", (-math.pi / 2, -lam, -phi))
    if gate.name == "cu":
        theta, phi, lam, gamma = gate.params
        return Gate("cu", (-theta, -lam, -phi, -gamma))
    if gate.name == "xx_plus_yy":
        theta, beta = gate.params
        return Gate("xx_plus_yy", (-theta, beta))
    if gate.name == "iswap":
        # iswap^-1 has no dedicated name; express it via xx_plus_yy.
        return Gate("xx_plus_yy", (math.pi, 0.0))
    if gate.name == "csx":
        return Gate("cu", (-math.pi / 2, -math.pi / 2, math.pi / 2, -math.pi / 4))
    raise ValueError(f"no inverse rule for gate {gate.name!r}")
