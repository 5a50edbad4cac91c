"""Device, coupling-map, native-gate-set, and calibration models.

A :class:`Device` bundles everything a compilation flow needs to know about
a target QPU: which gates it executes natively, which qubit pairs may host
two-qubit gates, and calibration data (gate/readout error rates) used by the
expected-fidelity reward function.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..circuit.circuit import QuantumCircuit

__all__ = ["CouplingMap", "NativeGateSet", "Calibration", "Device"]


class CouplingMap:
    """Undirected qubit connectivity graph with cached all-pairs distances."""

    def __init__(self, num_qubits: int, edges: list[tuple[int, int]] | None = None):
        self.num_qubits = int(num_qubits)
        self._adjacency: list[set[int]] = [set() for _ in range(self.num_qubits)]
        self._edges: set[tuple[int, int]] = set()
        self._distance: np.ndarray | None = None
        for a, b in edges or []:
            self.add_edge(a, b)

    def __getstate__(self) -> dict:
        # The distance matrix is rebuilt on first use; left in, its n*n floats
        # are most of every pickled compile result (127*127 on washington).
        state = self.__dict__.copy()
        state["_distance"] = None
        return state

    # -- construction -------------------------------------------------------------

    def add_edge(self, a: int, b: int) -> None:
        a, b = int(a), int(b)
        if a == b:
            raise ValueError("self-loops are not allowed in a coupling map")
        if not (0 <= a < self.num_qubits and 0 <= b < self.num_qubits):
            raise ValueError(f"edge ({a}, {b}) out of range for {self.num_qubits} qubits")
        self._adjacency[a].add(b)
        self._adjacency[b].add(a)
        self._edges.add((min(a, b), max(a, b)))
        self._distance = None

    @classmethod
    def all_to_all(cls, num_qubits: int) -> "CouplingMap":
        cmap = cls(num_qubits)
        for a in range(num_qubits):
            for b in range(a + 1, num_qubits):
                cmap.add_edge(a, b)
        return cmap

    # -- queries ------------------------------------------------------------------

    @property
    def edges(self) -> list[tuple[int, int]]:
        return sorted(self._edges)

    def neighbors(self, qubit: int) -> set[int]:
        return set(self._adjacency[qubit])

    def degree(self, qubit: int) -> int:
        return len(self._adjacency[qubit])

    def are_connected(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self._edges

    def is_fully_connected(self) -> bool:
        max_edges = self.num_qubits * (self.num_qubits - 1) // 2
        return len(self._edges) == max_edges

    def distance_matrix(self) -> np.ndarray:
        """All-pairs shortest-path distances (BFS, unreachable pairs = inf)."""
        if self._distance is None:
            n = self.num_qubits
            dist = np.full((n, n), np.inf)
            for src in range(n):
                dist[src, src] = 0
                frontier = [src]
                level = 0
                seen = {src}
                while frontier:
                    level += 1
                    nxt = []
                    for node in frontier:
                        for nb in self._adjacency[node]:
                            if nb not in seen:
                                seen.add(nb)
                                dist[src, nb] = level
                                nxt.append(nb)
                    frontier = nxt
            self._distance = dist
        return self._distance

    def distance(self, a: int, b: int) -> float:
        return float(self.distance_matrix()[a, b])

    def is_connected_graph(self) -> bool:
        if self.num_qubits == 0:
            return True
        return bool(np.all(np.isfinite(self.distance_matrix()[0])))

    def shortest_path(self, a: int, b: int) -> list[int]:
        """One shortest path from ``a`` to ``b`` (inclusive)."""
        if a == b:
            return [a]
        prev: dict[int, int] = {a: a}
        frontier = [a]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in sorted(self._adjacency[node]):
                    if nb not in prev:
                        prev[nb] = node
                        if nb == b:
                            path = [b]
                            while path[-1] != a:
                                path.append(prev[path[-1]])
                            return list(reversed(path))
                        nxt.append(nb)
            frontier = nxt
        raise ValueError(f"qubits {a} and {b} are not connected")

    def subgraph_connected(self, qubits: set[int]) -> bool:
        """Check whether ``qubits`` induce a connected subgraph."""
        if not qubits:
            return True
        qubits = set(qubits)
        start = next(iter(qubits))
        seen = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for node in frontier:
                for nb in self._adjacency[node]:
                    if nb in qubits and nb not in seen:
                        seen.add(nb)
                        nxt.append(nb)
            frontier = nxt
        return seen == qubits


@dataclass(frozen=True)
class NativeGateSet:
    """The gates a device executes natively."""

    single_qubit: tuple[str, ...]
    two_qubit: tuple[str, ...]
    basis_1q: str = "rz_sx"

    @property
    def names(self) -> frozenset[str]:
        return frozenset(self.single_qubit) | frozenset(self.two_qubit)

    def is_native(self, gate_name: str) -> bool:
        if gate_name in ("barrier", "measure", "reset", "id"):
            return True
        return gate_name in self.names


@dataclass
class Calibration:
    """Synthetic calibration data used by the expected-fidelity reward.

    ``two_qubit_error`` maps an undirected qubit pair to its entangling-gate
    error rate; pairs missing from the map fall back to ``default_two_qubit_error``.
    """

    single_qubit_error: dict[int, float] = field(default_factory=dict)
    two_qubit_error: dict[tuple[int, int], float] = field(default_factory=dict)
    readout_error: dict[int, float] = field(default_factory=dict)
    t1_us: dict[int, float] = field(default_factory=dict)
    t2_us: dict[int, float] = field(default_factory=dict)
    default_single_qubit_error: float = 5e-4
    default_two_qubit_error: float = 1e-2
    default_readout_error: float = 2e-2

    def gate_error(self, qubits: tuple[int, ...]) -> float:
        if len(qubits) == 1:
            return self.single_qubit_error.get(qubits[0], self.default_single_qubit_error)
        if len(qubits) == 2:
            key = (min(qubits), max(qubits))
            return self.two_qubit_error.get(key, self.default_two_qubit_error)
        # Multi-qubit gates should have been decomposed; charge them as a
        # pessimistic product of pairwise errors.
        return min(1.0, self.default_two_qubit_error * (len(qubits) - 1) * 2)

    def measurement_error(self, qubit: int) -> float:
        return self.readout_error.get(qubit, self.default_readout_error)

    @classmethod
    def synthetic(
        cls,
        coupling: CouplingMap,
        *,
        seed: int,
        single_qubit_error: float,
        two_qubit_error: float,
        readout_error: float,
        spread: float = 0.35,
        t1_us: float = 100.0,
        t2_us: float = 90.0,
    ) -> "Calibration":
        """Generate deterministic per-qubit/per-edge calibration around target means."""
        rng = np.random.default_rng(seed)

        def jitter(mean: float, size: int) -> np.ndarray:
            return np.clip(mean * rng.lognormal(0.0, spread, size), mean * 0.2, mean * 5.0)

        n = coupling.num_qubits
        q1 = jitter(single_qubit_error, n)
        ro = jitter(readout_error, n)
        t1 = jitter(t1_us, n)
        t2 = np.minimum(jitter(t2_us, n), 2 * t1)
        edges = coupling.edges
        q2 = jitter(two_qubit_error, len(edges))
        return cls(
            single_qubit_error={i: float(q1[i]) for i in range(n)},
            two_qubit_error={edge: float(q2[i]) for i, edge in enumerate(edges)},
            readout_error={i: float(ro[i]) for i in range(n)},
            t1_us={i: float(t1[i]) for i in range(n)},
            t2_us={i: float(t2[i]) for i in range(n)},
            default_single_qubit_error=single_qubit_error,
            default_two_qubit_error=two_qubit_error,
            default_readout_error=readout_error,
        )


@dataclass(frozen=True)
class Device:
    """A target quantum device: platform, size, native gates, topology, calibration."""

    name: str
    platform: str
    num_qubits: int
    gate_set: NativeGateSet
    coupling_map: CouplingMap
    calibration: Calibration
    description: str = ""

    # -- constraint checks used by the compilation MDP ------------------------------

    def supports_circuit_width(self, circuit: QuantumCircuit) -> bool:
        return len(circuit.active_qubits() or {0}) <= self.num_qubits and (
            circuit.num_qubits <= self.num_qubits
            or len(circuit.active_qubits()) <= self.num_qubits
        )

    def gates_native(self, circuit: QuantumCircuit) -> bool:
        """Check condition (1): the circuit only uses native gates."""
        return all(self.gate_set.is_native(name) for name in circuit.gate_names())

    def mapping_satisfied(self, circuit: QuantumCircuit) -> bool:
        """Check condition (2): all 2q interactions respect the coupling map."""
        if circuit.num_qubits > self.num_qubits:
            return False
        if self.coupling_map.is_fully_connected():
            return all(
                len(instr.qubits) <= 2
                for instr in circuit
                if instr.name != "barrier" and instr.gate.is_unitary
            )
        for instr in circuit:
            if instr.name == "barrier" or not instr.gate.is_unitary:
                continue
            if len(instr.qubits) > 2:
                return False
            if len(instr.qubits) == 2 and not self.coupling_map.are_connected(*instr.qubits):
                return False
        return True

    def is_executable(self, circuit: QuantumCircuit) -> bool:
        """Both compilation constraints hold: native gates and valid mapping."""
        return self.gates_native(circuit) and self.mapping_satisfied(circuit)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Device({self.name!r}, {self.num_qubits} qubits, platform={self.platform!r})"
