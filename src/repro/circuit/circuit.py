"""The :class:`QuantumCircuit` intermediate representation.

This is the single circuit format shared by every component of the framework
(benchmark generators, compilation passes, reward functions, the RL
environment), mirroring the "unified interface" requirement of the paper:
all compilation actions consume and produce a ``QuantumCircuit``.
"""

from __future__ import annotations

import hashlib
from collections import Counter
from typing import Iterable, Iterator, Sequence

from .gates import Gate, Instruction

__all__ = ["QuantumCircuit"]


class QuantumCircuit:
    """A quantum circuit: an ordered list of instructions on ``num_qubits`` qubits.

    The class intentionally keeps a flat, append-only representation; the DAG
    view needed by optimization and routing passes is built on demand by
    :class:`repro.circuit.dag.DAGCircuit`.
    """

    #: ``to_qasm``'s memo: ``(instruction list, (length, num_qubits,
    #: num_clbits), text)``.  A class default, so an unpickled circuit reads None.
    _qasm: tuple | None = None

    def __init__(self, num_qubits: int, num_clbits: int | None = None, name: str = "circuit"):
        if num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        self.num_qubits = int(num_qubits)
        self.num_clbits = int(num_clbits) if num_clbits is not None else int(num_qubits)
        self.name = name
        self._instructions: list[Instruction] = []
        self.metadata: dict = {}
        # cached (instruction count, digest) pair; see fingerprint()
        self._fingerprint: tuple[int, str] | None = None
        self._qasm = None

    def __getstate__(self) -> dict:
        # The QASM memo is derived text: a pickled circuit does not carry it.
        state = self.__dict__.copy()
        state.pop("_qasm", None)
        return state

    # -- basic container protocol ------------------------------------------------

    @property
    def instructions(self) -> list[Instruction]:
        return self._instructions

    def __len__(self) -> int:
        return len(self._instructions)

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self._instructions)

    def __getitem__(self, index):
        return self._instructions[index]

    def __eq__(self, other) -> bool:
        if not isinstance(other, QuantumCircuit):
            return NotImplemented
        return (
            self.num_qubits == other.num_qubits
            and self._instructions == other._instructions
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"QuantumCircuit(name={self.name!r}, qubits={self.num_qubits}, "
            f"gates={len(self)}, depth={self.depth()})"
        )

    # -- construction --------------------------------------------------------------

    def append(
        self,
        gate: Gate | str,
        qubits: Sequence[int],
        params: Sequence[float] = (),
        clbits: Sequence[int] = (),
    ) -> "QuantumCircuit":
        """Append a gate to the circuit.

        ``gate`` may be a :class:`Gate` instance or a gate name (in which case
        ``params`` supplies its parameters).
        """
        if isinstance(gate, str):
            gate = Gate(gate, tuple(params))
        instr = Instruction(gate, tuple(qubits), tuple(clbits))
        for q in instr.qubits:
            if not 0 <= q < self.num_qubits:
                raise ValueError(
                    f"qubit index {q} out of range for circuit with "
                    f"{self.num_qubits} qubits"
                )
        for c in instr.clbits:
            if not 0 <= c < self.num_clbits:
                raise ValueError(
                    f"clbit index {c} out of range for circuit with "
                    f"{self.num_clbits} clbits"
                )
        self._instructions.append(instr)
        self._fingerprint = None
        self._qasm = None
        return self

    def append_instruction(self, instruction: Instruction) -> "QuantumCircuit":
        """Append an already-constructed instruction."""
        return self.append(instruction.gate, instruction.qubits, clbits=instruction.clbits)

    def extend(self, instructions: Iterable[Instruction]) -> "QuantumCircuit":
        for instr in instructions:
            self.append_instruction(instr)
        return self

    # -- convenience gate constructors ---------------------------------------------

    def i(self, q: int):
        return self.append("id", [q])

    def x(self, q: int):
        return self.append("x", [q])

    def y(self, q: int):
        return self.append("y", [q])

    def z(self, q: int):
        return self.append("z", [q])

    def h(self, q: int):
        return self.append("h", [q])

    def s(self, q: int):
        return self.append("s", [q])

    def sdg(self, q: int):
        return self.append("sdg", [q])

    def t(self, q: int):
        return self.append("t", [q])

    def tdg(self, q: int):
        return self.append("tdg", [q])

    def sx(self, q: int):
        return self.append("sx", [q])

    def sxdg(self, q: int):
        return self.append("sxdg", [q])

    def rx(self, theta: float, q: int):
        return self.append("rx", [q], [theta])

    def ry(self, theta: float, q: int):
        return self.append("ry", [q], [theta])

    def rz(self, phi: float, q: int):
        return self.append("rz", [q], [phi])

    def p(self, lam: float, q: int):
        return self.append("p", [q], [lam])

    def u(self, theta: float, phi: float, lam: float, q: int):
        return self.append("u", [q], [theta, phi, lam])

    def cx(self, control: int, target: int):
        return self.append("cx", [control, target])

    def cy(self, control: int, target: int):
        return self.append("cy", [control, target])

    def cz(self, control: int, target: int):
        return self.append("cz", [control, target])

    def ch(self, control: int, target: int):
        return self.append("ch", [control, target])

    def cp(self, lam: float, control: int, target: int):
        return self.append("cp", [control, target], [lam])

    def crx(self, theta: float, control: int, target: int):
        return self.append("crx", [control, target], [theta])

    def cry(self, theta: float, control: int, target: int):
        return self.append("cry", [control, target], [theta])

    def crz(self, theta: float, control: int, target: int):
        return self.append("crz", [control, target], [theta])

    def cu(self, theta: float, phi: float, lam: float, gamma: float, control: int, target: int):
        return self.append("cu", [control, target], [theta, phi, lam, gamma])

    def swap(self, a: int, b: int):
        return self.append("swap", [a, b])

    def iswap(self, a: int, b: int):
        return self.append("iswap", [a, b])

    def ecr(self, a: int, b: int):
        return self.append("ecr", [a, b])

    def rxx(self, theta: float, a: int, b: int):
        return self.append("rxx", [a, b], [theta])

    def ryy(self, theta: float, a: int, b: int):
        return self.append("ryy", [a, b], [theta])

    def rzz(self, theta: float, a: int, b: int):
        return self.append("rzz", [a, b], [theta])

    def rzx(self, theta: float, a: int, b: int):
        return self.append("rzx", [a, b], [theta])

    def ccx(self, c1: int, c2: int, target: int):
        return self.append("ccx", [c1, c2, target])

    def ccz(self, c1: int, c2: int, target: int):
        return self.append("ccz", [c1, c2, target])

    def cswap(self, control: int, a: int, b: int):
        return self.append("cswap", [control, a, b])

    def measure(self, qubit: int, clbit: int | None = None):
        return self.append("measure", [qubit], clbits=[qubit if clbit is None else clbit])

    def measure_all(self):
        for q in range(self.num_qubits):
            self.measure(q, q)
        return self

    def reset(self, qubit: int):
        return self.append("reset", [qubit])

    def barrier(self, *qubits: int):
        gate = Gate("barrier")
        qs = tuple(qubits) if qubits else tuple(range(self.num_qubits))
        self._instructions.append(Instruction(gate, qs))
        self._fingerprint = None
        self._qasm = None
        return self

    # -- identity ---------------------------------------------------------------------

    def fingerprint(self) -> str:
        """Stable content hash of the circuit (qubit count, gate sequence, parameters).

        The digest identifies the circuit *structurally* — the name and metadata
        do not contribute — which makes it usable as a cache key for analysis
        results (:class:`repro.pipeline.AnalysisCache`) and, combined with the
        name, for the batch-compilation LRU cache.

        The hash is cached on the instance and invalidated by the mutating
        construction methods (``append`` and friends).  Code that reaches into
        ``_instructions`` directly is also covered as long as it changes the
        instruction count; in-place same-length edits of the private list are
        not detected.

        :func:`repro.circuit.qasm.to_qasm` keeps its text in ``_qasm`` under
        the same rules, and is also invalidated when ``_instructions`` is
        rebound to another list or ``num_qubits``/``num_clbits`` change; the
        same-length in-place caveat applies to it too.  ``copy()`` starts
        without it, and a pickled circuit leaves it out.
        """
        cached = self._fingerprint
        if cached is not None and cached[0] == len(self._instructions):
            return cached[1]
        hasher = hashlib.sha1()
        hasher.update(str(self.num_qubits).encode())
        for instr in self._instructions:
            params = ",".join(f"{p:.12g}" for p in instr.params)
            hasher.update(f";{instr.name}@{instr.qubits}/{instr.clbits}({params})".encode())
        digest = hasher.hexdigest()
        self._fingerprint = (len(self._instructions), digest)
        return digest

    # -- metrics --------------------------------------------------------------------

    def depth(self, *, only_2q: bool = False) -> int:
        """Circuit depth: length of the longest gate chain over any qubit.

        With ``only_2q=True``, only multi-qubit gates contribute to the depth
        (single-qubit gates are transparent), matching the "two-qubit depth"
        used by the critical-depth metric.
        """
        levels = [0] * max(self.num_qubits, 1)
        clevels = [0] * max(self.num_clbits, 1)
        for instr in self._instructions:
            if instr.name == "barrier":
                continue
            counts = only_2q and len(instr.qubits) < 2
            involved = [levels[q] for q in instr.qubits]
            involved += [clevels[c] for c in instr.clbits]
            new_level = max(involved, default=0) + (0 if counts else 1)
            for q in instr.qubits:
                levels[q] = new_level
            for c in instr.clbits:
                clevels[c] = new_level
        return max(levels + clevels, default=0)

    def count_ops(self) -> Counter:
        """Histogram of gate names."""
        return Counter(instr.name for instr in self._instructions)

    def size(self) -> int:
        """Number of operations excluding barriers."""
        return sum(1 for instr in self._instructions if instr.name != "barrier")

    def num_gates(self, *, min_qubits: int = 1) -> int:
        """Number of unitary gates acting on at least ``min_qubits`` qubits."""
        return sum(
            1
            for instr in self._instructions
            if instr.gate.is_unitary and len(instr.qubits) >= min_qubits
        )

    def num_two_qubit_gates(self) -> int:
        return self.num_gates(min_qubits=2)

    def num_parameters(self) -> int:
        return sum(len(instr.params) for instr in self._instructions)

    def active_qubits(self) -> set[int]:
        """Qubits touched by at least one non-barrier instruction."""
        used: set[int] = set()
        for instr in self._instructions:
            if instr.name != "barrier":
                used.update(instr.qubits)
        return used

    def gate_names(self) -> set[str]:
        """Set of gate names appearing in the circuit (excluding barriers/measures)."""
        return {
            instr.name
            for instr in self._instructions
            if instr.name not in ("barrier", "measure", "reset")
        }

    def two_qubit_interactions(self) -> set[tuple[int, int]]:
        """Unordered qubit pairs coupled by at least one multi-qubit gate."""
        pairs: set[tuple[int, int]] = set()
        for instr in self._instructions:
            if instr.name == "barrier" or len(instr.qubits) < 2:
                continue
            qs = instr.qubits
            for i in range(len(qs)):
                for j in range(i + 1, len(qs)):
                    pairs.add((min(qs[i], qs[j]), max(qs[i], qs[j])))
        return pairs

    # -- transformations --------------------------------------------------------------

    def copy(self, name: str | None = None) -> "QuantumCircuit":
        out = QuantumCircuit(self.num_qubits, self.num_clbits, name or self.name)
        out._instructions = list(self._instructions)
        out.metadata = dict(self.metadata)
        out._fingerprint = self._fingerprint
        return out

    def compose(self, other: "QuantumCircuit", qubits: Sequence[int] | None = None) -> "QuantumCircuit":
        """Return a new circuit with ``other`` appended after ``self``.

        ``qubits`` maps the other circuit's qubit *i* onto ``qubits[i]`` of
        this circuit (identity mapping by default).
        """
        if qubits is None:
            qubits = list(range(other.num_qubits))
        if len(qubits) != other.num_qubits:
            raise ValueError("qubit mapping length must match other.num_qubits")
        out = self.copy()
        mapping = {i: int(q) for i, q in enumerate(qubits)}
        for instr in other:
            if instr.name == "barrier":
                out._instructions.append(
                    Instruction(instr.gate, tuple(mapping[q] for q in instr.qubits))
                )
            else:
                out.append(instr.gate, [mapping[q] for q in instr.qubits], clbits=instr.clbits)
        return out

    def inverse(self) -> "QuantumCircuit":
        """Return the inverse circuit (reversed order, inverted gates)."""
        out = QuantumCircuit(self.num_qubits, self.num_clbits, f"{self.name}_dg")
        for instr in reversed(self._instructions):
            if instr.name == "barrier":
                out._instructions.append(instr)
                continue
            if not instr.gate.is_unitary:
                raise ValueError("cannot invert a circuit containing measurements/resets")
            out.append(instr.gate.inverse(), instr.qubits)
        return out

    def remap_qubits(self, mapping: dict[int, int], num_qubits: int | None = None) -> "QuantumCircuit":
        """Return a copy with every qubit index rewritten through ``mapping``."""
        n = num_qubits if num_qubits is not None else self.num_qubits
        out = QuantumCircuit(n, self.num_clbits, self.name)
        out.metadata = dict(self.metadata)
        for instr in self._instructions:
            out._instructions.append(instr.remap({q: mapping[q] for q in instr.qubits}))
        return out

    def without_final_measurements(self) -> "QuantumCircuit":
        """Return a copy with trailing measurement/barrier operations removed."""
        out = self.copy()
        while out._instructions and out._instructions[-1].name in ("measure", "barrier"):
            out._instructions.pop()
        return out

    def without_measurements(self) -> "QuantumCircuit":
        """Return a copy with every measurement and reset removed.

        Useful for computing the pre-measurement state of a circuit whose
        measurements are terminal on each wire but interleaved with gates on
        other wires (the usual situation after compilation).
        """
        out = self.copy()
        out._instructions = [
            instr for instr in self._instructions if instr.name not in ("measure", "reset")
        ]
        return out

    def without_ancillas(self) -> tuple["QuantumCircuit", dict[int, int]]:
        """Compact the circuit onto its active qubits.

        Returns the compacted circuit and the old-index → new-index mapping.
        """
        used = sorted(self.active_qubits())
        mapping = {old: new for new, old in enumerate(used)}
        out = QuantumCircuit(len(used), self.num_clbits, self.name)
        out.metadata = dict(self.metadata)
        for instr in self._instructions:
            if instr.name == "barrier":
                qs = tuple(mapping[q] for q in instr.qubits if q in mapping)
                out._instructions.append(Instruction(instr.gate, qs))
            else:
                out._instructions.append(instr.remap({q: mapping[q] for q in instr.qubits}))
        return out, mapping

    # -- pretty printing ---------------------------------------------------------------

    def summary(self) -> str:
        """One-paragraph human-readable summary of the circuit."""
        ops = ", ".join(f"{name}:{count}" for name, count in sorted(self.count_ops().items()))
        return (
            f"{self.name}: {self.num_qubits} qubits, {self.size()} ops, "
            f"depth {self.depth()}, 2q-gates {self.num_two_qubit_gates()} [{ops}]"
        )
