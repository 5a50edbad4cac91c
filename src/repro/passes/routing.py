"""Routing passes: making two-qubit gates conform to the device topology.

All routers share the same contract: the input circuit is already expressed
on the device's physical qubits (a layout pass has been applied) and contains
only one- and two-qubit operations.  The router emits a new circuit in which
every two-qubit gate acts on a connected pair, inserting SWAP operations as
needed.  Inserted SWAPs are decomposed into the device's native gate set so
that routing a native circuit keeps it native.

Four routers mirror the action set of the paper:

* :class:`BasicSwap` — route each offending gate along a shortest path
  (Qiskit's ``BasicSwap``).
* :class:`StochasticSwap` — randomised trials with greedy fallback (Qiskit's
  ``StochasticSwap``).
* :class:`SabreSwap` — the SABRE lookahead heuristic (Qiskit's ``SabreSwap``).
* :class:`TketRouting` — a lookahead router in the style of TKET's
  ``RoutingPass``.
"""

from __future__ import annotations

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..circuit.dag import DAGCircuit
from ..circuit.gates import Gate, Instruction
from ..devices.device import Device
from ..linalg.decompositions import native_1q_gates
from .base import PassContext
from .registry import RoutingPass, register_pass
from .synthesis import _cx_to_native

__all__ = ["BasicSwap", "StochasticSwap", "SabreSwap", "TketRouting", "expand_swaps"]


def expand_swaps(circuit: QuantumCircuit, device: Device) -> QuantumCircuit:
    """Replace SWAP gates with the device's native realisation (3 entangling gates).

    Each SWAP becomes three CXs rewritten by the same rules as
    :class:`~repro.passes.synthesis.BasisTranslator`; their single-qubit
    corrections may be non-native (H on IBM) and are left to the 1q passes.
    A device whose entangling gates have no CX rule raises ``ValueError``.
    """
    if "swap" in device.gate_set.two_qubit:
        return circuit
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    out.metadata = dict(circuit.metadata)
    for instr in circuit:
        if instr.name != "swap":
            out._instructions.append(instr)
            continue
        a, b = instr.qubits
        for control, target in ((a, b), (b, a), (a, b)):
            out.extend(
                _cx_to_native(Instruction(Gate("cx"), (control, target)), device.gate_set)
            )
    return out


def _nativize_1q(circuit: QuantumCircuit, device: Device) -> QuantumCircuit:
    """Translate any non-native single-qubit gates into the device's 1q basis."""
    out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
    out.metadata = dict(circuit.metadata)
    for instr in circuit:
        if (
            instr.name in ("barrier", "measure", "reset")
            or len(instr.qubits) != 1
            or device.gate_set.is_native(instr.name)
        ):
            out._instructions.append(instr)
            continue
        out.extend(
            Instruction(gate, instr.qubits)
            for gate in native_1q_gates(instr.gate, device.gate_set.basis_1q)
        )
    return out


class _RoutingState:
    """Tracks the virtual-wire → physical-qubit placement during routing."""

    def __init__(self, num_qubits: int):
        # virtual label (qubit index in the incoming circuit) -> physical qubit
        self.virtual_to_physical = {q: q for q in range(num_qubits)}
        self.physical_to_virtual = {q: q for q in range(num_qubits)}

    def physical(self, virtual: int) -> int:
        return self.virtual_to_physical[virtual]

    def swap_physical(self, a: int, b: int) -> None:
        va, vb = self.physical_to_virtual[a], self.physical_to_virtual[b]
        self.virtual_to_physical[va], self.virtual_to_physical[vb] = b, a
        self.physical_to_virtual[a], self.physical_to_virtual[b] = vb, va

    def remap(self, instruction: Instruction) -> Instruction:
        return instruction.remap({q: self.physical(q) for q in instruction.qubits})


def _physical_pairs(
    instructions: list[Instruction], state: _RoutingState
) -> np.ndarray:
    """Current physical positions of each 2q instruction's qubits, ``(P, 2)``."""
    phys = state.virtual_to_physical
    if not instructions:
        return np.empty((0, 2), dtype=np.intp)
    return np.array(
        [[phys[i.qubits[0]], phys[i.qubits[1]]] for i in instructions], dtype=np.intp
    )


def _trial_positions(
    positions: np.ndarray, s0: np.ndarray, s1: np.ndarray
) -> np.ndarray:
    """Remap a row of physical positions through every candidate SWAP.

    ``positions`` is ``(P,)``; ``s0``/``s1`` are ``(C, 1)`` columns of the
    candidate endpoints.  Returns ``(C, P)``: entry ``[c, p]`` is where
    position ``p`` lands after applying candidate ``c``.
    """
    row = positions[None, :]
    return np.where(row == s0, s1, np.where(row == s1, s0, row))


def _swap_scores(
    candidates: np.ndarray,
    front_pairs: np.ndarray,
    look_pairs: np.ndarray,
    look_weight: float,
    distances: np.ndarray,
    decay: np.ndarray,
) -> np.ndarray:
    """SABRE scores for all candidate SWAPs at once, ``(C,)``."""
    s0 = candidates[:, 0][:, None]
    s1 = candidates[:, 1][:, None]
    num_candidates = len(candidates)
    if len(front_pairs):
        a = _trial_positions(front_pairs[:, 0], s0, s1)
        b = _trial_positions(front_pairs[:, 1], s0, s1)
        front_cost = distances[a, b].sum(axis=1) / max(1, len(front_pairs))
    else:
        front_cost = np.zeros(num_candidates)
    if len(look_pairs):
        a = _trial_positions(look_pairs[:, 0], s0, s1)
        b = _trial_positions(look_pairs[:, 1], s0, s1)
        look_cost = distances[a, b].sum(axis=1) / len(look_pairs)
        front_cost = front_cost + look_weight * look_cost
    return np.maximum(decay[candidates[:, 0]], decay[candidates[:, 1]]) * front_cost


class _BaseRouter(RoutingPass):
    """Shared machinery for all routing passes."""

    requires_device = True
    origin = "repro"

    def __init__(self, seed: int | None = None):
        self.seed = seed

    # -- public entry point --------------------------------------------------------

    def run(self, circuit: QuantumCircuit, context: PassContext) -> QuantumCircuit:
        device = context.require_device()
        self._check_input(circuit, device)
        was_native = device.gates_native(circuit)
        if self._already_routed(circuit, device):
            context.final_layout = {q: q for q in range(circuit.num_qubits)}
            routed = circuit.copy()
        else:
            seed = self.seed if self.seed is not None else context.seed
            routed, final_layout = self._route(circuit, device, np.random.default_rng(seed))
            context.final_layout = final_layout
        routed = expand_swaps(routed, device)
        if was_native and not device.gates_native(routed):
            routed = _nativize_1q(routed, device)
        routed.metadata["routed"] = True
        return routed

    # -- hooks ----------------------------------------------------------------------

    def _route(
        self, circuit: QuantumCircuit, device: Device, rng: np.random.Generator
    ) -> tuple[QuantumCircuit, dict[int, int]]:
        raise NotImplementedError

    # -- helpers ---------------------------------------------------------------------

    @staticmethod
    def _check_input(circuit: QuantumCircuit, device: Device) -> None:
        if circuit.num_qubits > device.num_qubits:
            raise ValueError(
                f"circuit has {circuit.num_qubits} qubits but device "
                f"{device.name} only has {device.num_qubits}"
            )
        for instr in circuit:
            if instr.name == "barrier":
                continue
            if len(instr.qubits) > 2:
                raise ValueError(
                    "routing requires gates on at most two qubits; "
                    f"found {instr.name!r} on {len(instr.qubits)} qubits "
                    "(run synthesis first)"
                )

    @staticmethod
    def _already_routed(circuit: QuantumCircuit, device: Device) -> bool:
        return device.mapping_satisfied(circuit)

    @staticmethod
    def _widen(circuit: QuantumCircuit, device: Device) -> QuantumCircuit:
        if circuit.num_qubits == device.num_qubits:
            return circuit
        out = QuantumCircuit(device.num_qubits, circuit.num_clbits, circuit.name)
        out.metadata = dict(circuit.metadata)
        out._instructions = list(circuit.instructions)
        return out


class BasicSwap(_BaseRouter):
    """Route every non-adjacent gate along a shortest path of SWAPs."""

    name = "basic_swap"
    origin = "qiskit"

    def _route(
        self, circuit: QuantumCircuit, device: Device, rng: np.random.Generator
    ) -> tuple[QuantumCircuit, dict[int, int]]:
        circuit = self._widen(circuit, device)
        coupling = device.coupling_map
        state = _RoutingState(circuit.num_qubits)
        out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        for instr in circuit:
            if instr.name == "barrier" or len(instr.qubits) < 2:
                out._instructions.append(state.remap(instr))
                continue
            a, b = (state.physical(q) for q in instr.qubits)
            if not coupling.are_connected(a, b):
                path = coupling.shortest_path(a, b)
                # Swap the first qubit along the path until adjacent to the last.
                for hop in path[1:-1]:
                    out.append(Gate("swap"), (a, hop))
                    state.swap_physical(a, hop)
                    a = hop
            out._instructions.append(state.remap(instr))
        return out, dict(state.virtual_to_physical)


class StochasticSwap(_BaseRouter):
    """Randomised-trial router: several seeds of a greedy/random hybrid, best kept."""

    name = "stochastic_swap"
    origin = "qiskit"

    def __init__(self, trials: int = 5, seed: int | None = None):
        super().__init__(seed=seed)
        self.trials = trials

    def _route(
        self, circuit: QuantumCircuit, device: Device, rng: np.random.Generator
    ) -> tuple[QuantumCircuit, dict[int, int]]:
        circuit = self._widen(circuit, device)
        best: tuple[QuantumCircuit, dict[int, int]] | None = None
        best_swaps = None
        for _ in range(max(1, self.trials)):
            trial_rng = np.random.default_rng(int(rng.integers(0, 2**31 - 1)))
            routed, layout = self._route_once(circuit, device, trial_rng)
            swaps = routed.count_ops().get("swap", 0)
            if best is None or swaps < best_swaps:
                best, best_swaps = (routed, layout), swaps
        assert best is not None
        return best

    def _route_once(
        self, circuit: QuantumCircuit, device: Device, rng: np.random.Generator
    ) -> tuple[QuantumCircuit, dict[int, int]]:
        coupling = device.coupling_map
        # Hoisted out of the swap-insertion loop: the matrix is cached on the
        # CouplingMap, but the old code still paid the call per inserted SWAP.
        distances = coupling.distance_matrix()
        state = _RoutingState(circuit.num_qubits)
        out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        for instr in circuit:
            if instr.name == "barrier" or len(instr.qubits) < 2:
                out._instructions.append(state.remap(instr))
                continue
            a, b = (state.physical(q) for q in instr.qubits)
            guard = 0
            while not coupling.are_connected(a, b):
                guard += 1
                if guard > 4 * device.num_qubits:
                    raise RuntimeError("stochastic routing failed to converge")
                candidates = [(a, nb) for nb in coupling.neighbors(a)]
                candidates += [(b, nb) for nb in coupling.neighbors(b)]

                def gain(move: tuple[int, int]) -> float:
                    src, dst = move
                    if src == a:
                        return distances[dst, b]
                    return distances[a, dst]

                if rng.random() < 0.15:
                    src, dst = candidates[int(rng.integers(len(candidates)))]
                else:
                    src, dst = min(candidates, key=gain)
                out.append(Gate("swap"), (src, dst))
                state.swap_physical(src, dst)
                a, b = (state.physical(q) for q in instr.qubits)
            out._instructions.append(state.remap(instr))
        return out, dict(state.virtual_to_physical)


class SabreSwap(_BaseRouter):
    """SABRE lookahead router (Li, Ding & Xie, ASPLOS 2019).

    Executable front-layer gates are emitted immediately; when the front layer
    is blocked, the router scores every SWAP adjacent to a blocked qubit by
    the resulting front-layer and lookahead ("extended set") distances and
    applies the best one.  A decay factor discourages ping-ponging the same
    qubits.
    """

    name = "sabre_swap"
    origin = "qiskit"

    def __init__(
        self,
        seed: int | None = None,
        extended_set_size: int = 20,
        extended_set_weight: float = 0.5,
        decay_increment: float = 0.001,
    ):
        super().__init__(seed=seed)
        self.extended_set_size = extended_set_size
        self.extended_set_weight = extended_set_weight
        self.decay_increment = decay_increment

    def _route(
        self, circuit: QuantumCircuit, device: Device, rng: np.random.Generator
    ) -> tuple[QuantumCircuit, dict[int, int]]:
        circuit = self._widen(circuit, device)
        coupling = device.coupling_map
        distances = coupling.distance_matrix()
        dag = DAGCircuit.from_circuit(circuit)
        state = _RoutingState(circuit.num_qubits)
        out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)

        decay = np.ones(circuit.num_qubits)
        front = {node.node_id for node in dag.front_layer()}
        steps_since_progress = 0

        while front:
            executable = []
            for node_id in sorted(front):
                node = dag.node(node_id)
                if self._is_executable(node.instruction, state, coupling):
                    executable.append(node_id)
            if executable:
                steps_since_progress = 0
                decay[:] = 1.0
                for node_id in executable:
                    node = dag.node(node_id)
                    out._instructions.append(state.remap(node.instruction))
                    front.discard(node_id)
                    successors = list(node.successors)
                    dag.remove_node(node_id)
                    for succ in successors:
                        if succ in dag.nodes and not dag.node(succ).predecessors:
                            front.add(succ)
                continue

            steps_since_progress += 1
            if steps_since_progress > 10 * device.num_qubits + 100:
                raise RuntimeError("SABRE routing failed to make progress")

            blocked = [dag.node(nid).instruction for nid in front]
            candidates = self._swap_candidates(blocked, state, coupling)
            extended = self._extended_set(dag, front)
            best_swap = self._best_swap(
                candidates, blocked, extended, state, distances, decay, rng
            )
            out.append(Gate("swap"), best_swap)
            state.swap_physical(*best_swap)
            decay[best_swap[0]] += self.decay_increment
            decay[best_swap[1]] += self.decay_increment

        return out, dict(state.virtual_to_physical)

    @staticmethod
    def _is_executable(instruction: Instruction, state: _RoutingState, coupling) -> bool:
        if instruction.name == "barrier" or len(instruction.qubits) < 2:
            return True
        a, b = (state.physical(q) for q in instruction.qubits)
        return coupling.are_connected(a, b)

    @staticmethod
    def _swap_candidates(
        blocked: list[Instruction], state: _RoutingState, coupling
    ) -> list[tuple[int, int]]:
        candidates: set[tuple[int, int]] = set()
        for instr in blocked:
            if len(instr.qubits) < 2:
                continue
            for virtual in instr.qubits:
                phys = state.physical(virtual)
                for neighbor in coupling.neighbors(phys):
                    candidates.add((min(phys, neighbor), max(phys, neighbor)))
        return sorted(candidates)

    def _extended_set(self, dag: DAGCircuit, front: set[int]) -> list[Instruction]:
        extended: list[Instruction] = []
        frontier = list(front)
        seen = set(front)
        while frontier and len(extended) < self.extended_set_size:
            node_id = frontier.pop(0)
            for succ in sorted(dag.node(node_id).successors):
                if succ in seen:
                    continue
                seen.add(succ)
                instr = dag.node(succ).instruction
                if len(instr.qubits) == 2 and instr.name != "barrier":
                    extended.append(instr)
                frontier.append(succ)
        return extended

    def _best_swap(
        self,
        candidates: list[tuple[int, int]],
        blocked: list[Instruction],
        extended: list[Instruction],
        state: _RoutingState,
        distances: np.ndarray,
        decay: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, int]:
        # All candidate SWAPs are scored with one vectorised gather over the
        # distance matrix instead of building an O(num_qubits) trial mapping
        # per candidate.  Float semantics match the old per-candidate loop
        # exactly: front/extended sets stay well under numpy's pairwise-sum
        # block size, so the row sums add in the same order as the old
        # ``sum()`` over Python floats.
        front_pairs = _physical_pairs(
            [i for i in blocked if len(i.qubits) == 2], state
        )
        look_pairs = _physical_pairs(extended, state)
        scores = _swap_scores(
            np.asarray(candidates), front_pairs, look_pairs,
            self.extended_set_weight, distances, decay,
        )
        best = np.flatnonzero(np.abs(scores - scores.min()) < 1e-12)
        return candidates[int(best[int(rng.integers(len(best)))])]


class TketRouting(_BaseRouter):
    """Lookahead router in the style of TKET's ``RoutingPass``.

    Scores each candidate SWAP by the total distance reduction over a fixed
    window of upcoming two-qubit gates, weighting earlier gates more heavily.
    """

    name = "tket_routing"
    origin = "tket"

    def __init__(self, seed: int | None = None, lookahead: int = 12):
        super().__init__(seed=seed)
        self.lookahead = lookahead

    def _route(
        self, circuit: QuantumCircuit, device: Device, rng: np.random.Generator
    ) -> tuple[QuantumCircuit, dict[int, int]]:
        circuit = self._widen(circuit, device)
        coupling = device.coupling_map
        distances = coupling.distance_matrix()
        state = _RoutingState(circuit.num_qubits)
        out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        instructions = list(circuit.instructions)

        index = 0
        swaps_since_progress = 0
        while index < len(instructions):
            instr = instructions[index]
            if instr.name == "barrier" or len(instr.qubits) < 2:
                out._instructions.append(state.remap(instr))
                index += 1
                continue
            a, b = (state.physical(q) for q in instr.qubits)
            if coupling.are_connected(a, b):
                out._instructions.append(state.remap(instr))
                index += 1
                swaps_since_progress = 0
                continue
            # The window score can cycle through SWAPs that never bring the
            # blocked pair together; bound it as SabreSwap does.
            swaps_since_progress += 1
            if swaps_since_progress > 10 * device.num_qubits + 100:
                raise RuntimeError("TKET routing failed to make progress")
            upcoming = self._upcoming_pairs(instructions, index)
            best_swap = self._best_swap(a, b, upcoming, state, coupling, distances, rng)
            out.append(Gate("swap"), best_swap)
            state.swap_physical(*best_swap)

        return out, dict(state.virtual_to_physical)

    def _upcoming_pairs(
        self, instructions: list[Instruction], index: int
    ) -> list[tuple[int, int]]:
        pairs = []
        for instr in instructions[index:]:
            if instr.name == "barrier" or len(instr.qubits) != 2:
                continue
            pairs.append(instr.qubits)
            if len(pairs) >= self.lookahead:
                break
        return pairs

    def _best_swap(
        self,
        a: int,
        b: int,
        upcoming: list[tuple[int, int]],
        state: _RoutingState,
        coupling,
        distances: np.ndarray,
        rng: np.random.Generator,
    ) -> tuple[int, int]:
        candidates: set[tuple[int, int]] = set()
        for phys in (a, b):
            for neighbor in coupling.neighbors(phys):
                candidates.add((min(phys, neighbor), max(phys, neighbor)))

        ordered = sorted(candidates)
        cand = np.asarray(ordered)
        phys_map = state.virtual_to_physical
        pairs = np.array(
            [[phys_map[qa], phys_map[qb]] for qa, qb in upcoming], dtype=np.intp
        )
        # 0.8**i via the scalar power so the weights match the old loop bit
        # for bit; the lookahead window (<= 12 pairs) keeps the row sums in
        # numpy's sequential regime, identical to the old running total.
        weights = np.array([0.8**i for i in range(len(upcoming))])
        if len(pairs):
            s0 = cand[:, 0][:, None]
            s1 = cand[:, 1][:, None]
            ta = _trial_positions(pairs[:, 0], s0, s1)
            tb = _trial_positions(pairs[:, 1], s0, s1)
            scores = (weights[None, :] * distances[ta, tb]).sum(axis=1)
        else:
            scores = np.zeros(len(cand))
        best = np.flatnonzero(np.abs(scores - scores.min()) < 1e-12)
        return ordered[int(best[int(rng.integers(len(best)))])]


for _cls in (BasicSwap, StochasticSwap, SabreSwap, TketRouting):
    register_pass(_cls.name, _cls, overwrite=True)
del _cls
