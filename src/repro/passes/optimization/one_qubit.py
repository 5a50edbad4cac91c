"""Single-qubit gate optimization passes."""

from __future__ import annotations

import numpy as np

from ...circuit.circuit import QuantumCircuit
from ...circuit.gates import Gate, Instruction, gate_matrix
from ...linalg.decompositions import synthesize_1q
from ...linalg.kernels import (
    allclose_up_to_global_phase_batch,
    gate_matrices_batch,
    run_products_batch,
    synthesize_1q_batch,
)
from ...linalg.unitaries import allclose_up_to_global_phase
from ...obs import timed
from ..base import AnalysisDomain, PassContext
from ..registry import OptimizationPass, register_pass

__all__ = ["Optimize1qGatesDecomposition", "RemoveRedundancies"]

_ROTATION_AXES = {"rz": "z", "rx": "x", "ry": "y", "p": "z"}


class Optimize1qGatesDecomposition(OptimizationPass):
    """Fuse runs of single-qubit gates and re-emit them in an Euler basis.

    Mirrors Qiskit's ``Optimize1qGatesDecomposition``: every maximal run of
    consecutive single-qubit gates on a wire is multiplied into one 2x2
    unitary and re-synthesised.  The replacement is only kept when it is not
    longer than the original run; runs that multiply to the identity are
    removed entirely.
    """

    name = "optimize_1q_gates"
    origin = "qiskit"
    # Only single-qubit runs are rewritten: the multi-qubit gate structure —
    # and with it the per-device coupling-map check — is untouched.
    preserves = frozenset({AnalysisDomain.MAPPING})

    def __init__(self, basis: str | None = None):
        self.basis = basis

    def run(self, circuit: QuantumCircuit, context: PassContext) -> QuantumCircuit:
        basis = self.basis
        if basis is None:
            basis = (
                context.device.gate_set.basis_1q if context.device is not None else "u3"
            )
        out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        out.metadata = dict(circuit.metadata)
        # One sweep collects every maximal 1q run into ``runs`` and leaves an
        # integer placeholder in ``slots``; the batch resynthesis then fills
        # the placeholders.  Output order is identical to the old per-flush
        # appends: a placeholder sits exactly where the flush used to emit.
        slots: list[Instruction | int] = []
        runs: list[tuple[list[Instruction], int]] = []
        pending: dict[int, list[Instruction]] = {}

        def flush(qubit: int) -> None:
            run = pending.pop(qubit, None)
            if not run:
                return
            slots.append(len(runs))
            runs.append((run, qubit))

        for instr in circuit:
            if instr.gate.is_unitary and len(instr.qubits) == 1:
                pending.setdefault(instr.qubits[0], []).append(instr)
                continue
            for qubit in instr.qubits:
                flush(qubit)
            slots.append(instr)
        for qubit in sorted(pending):
            flush(qubit)

        replacements = self._resynthesize_batch(runs, basis)
        instructions = out._instructions
        for slot in slots:
            if type(slot) is int:
                instructions.extend(replacements[slot])
            else:
                instructions.append(slot)
        return out

    _BASIS_GATE_NAMES = {
        "rz_sx": {"rz", "sx", "x"},
        "rz_rx": {"rz", "rx"},
        "rz_ry": {"rz", "ry"},
        "u3": {"u", "u3"},
    }

    @classmethod
    def _resynthesize_batch(
        cls, runs: list[tuple[list[Instruction], int]], basis: str
    ) -> list[list[Instruction]]:
        """Resynthesise all collected runs at once via the batched kernels.

        Semantics match ``_resynthesize`` per run exactly — same early-keep
        rule, same identity drop, same accept-if-shorter-or-out-of-basis —
        but the matrix products, identity checks and Euler synthesis all run
        over ``(N, 2, 2)`` stacks instead of per-gate Python loops.
        """
        basis_names = cls._BASIS_GATE_NAMES.get(basis, set())
        results: list[list[Instruction] | None] = [None] * len(runs)
        work: list[tuple[int, list[Instruction], int, bool]] = []
        for run_index, (run, qubit) in enumerate(runs):
            already_in_basis = all(instr.name in basis_names for instr in run)
            if len(run) == 1 and run[0].name != "id" and already_in_basis:
                results[run_index] = run
            else:
                work.append((run_index, run, qubit, already_in_basis))
        if not work:
            return results  # type: ignore[return-value]

        flat_gates = [instr.gate for _, run, _, _ in work for instr in run]
        with timed("pass.optimize_1q_gates.batch", items=len(flat_gates)):
            products = run_products_batch(
                gate_matrices_batch(flat_gates), [len(run) for _, run, _, _ in work]
            )
            is_identity = allclose_up_to_global_phase_batch(
                products, np.eye(2, dtype=complex)
            )
            synth_positions = []
            for pos, (run_index, _, _, _) in enumerate(work):
                if is_identity[pos]:
                    results[run_index] = []
                else:
                    synth_positions.append(pos)
            if synth_positions:
                decomps = synthesize_1q_batch(products[synth_positions], basis)
                for decomp, pos in zip(decomps, synth_positions):
                    run_index, run, qubit, already_in_basis = work[pos]
                    replacement = [Instruction(gate, (qubit,)) for gate in decomp.gates]
                    if len(replacement) <= len(run) or not already_in_basis:
                        results[run_index] = replacement
                    else:
                        results[run_index] = run
        return results  # type: ignore[return-value]

    @classmethod
    def _resynthesize(cls, run: list[Instruction], qubit: int, basis: str) -> list[Instruction]:
        basis_names = cls._BASIS_GATE_NAMES.get(basis, set())
        already_in_basis = all(instr.name in basis_names for instr in run)
        if len(run) == 1 and run[0].name != "id" and already_in_basis:
            return run
        product = np.eye(2, dtype=complex)
        for instr in run:
            product = gate_matrix(instr.gate) @ product
        if allclose_up_to_global_phase(product, np.eye(2)):
            return []
        decomp = synthesize_1q(product, basis)
        replacement = [Instruction(gate, (qubit,)) for gate in decomp.gates]
        # Accept the replacement when it is shorter, or when it moves the run
        # into the target basis (Qiskit's pass weighs out-of-basis gates as
        # more expensive than extra in-basis gates).
        if len(replacement) <= len(run) or not already_in_basis:
            return replacement
        return run


class RemoveRedundancies(OptimizationPass):
    """TKET-style redundancy removal.

    Removes rotations with angle zero (mod 2*pi), merges adjacent rotations
    about the same axis on the same qubit, cancels adjacent gate/inverse
    pairs, and drops identity gates.
    """

    name = "remove_redundancies"
    origin = "tket"

    def run(self, circuit: QuantumCircuit, context: PassContext) -> QuantumCircuit:
        instructions = [i for i in circuit if i.name != "id"]
        # Incremental worklist: the first sweep considers every wire; later
        # sweeps only attempt rewrites on instructions touching a wire that
        # changed in the previous sweep (a merge, cancellation or dropped
        # zero-rotation can only unlock new rewrites on its own wires).
        # Output is identical to iterating ``_single_pass`` to fixed point.
        active: set[int] | None = None
        while True:
            instructions, changed_wires = self._incremental_pass(instructions, active)
            if not changed_wires:
                break
            active = changed_wires
        out = QuantumCircuit(circuit.num_qubits, circuit.num_clbits, circuit.name)
        out.metadata = dict(circuit.metadata)
        out._instructions = instructions
        return out

    def _incremental_pass(
        self, instructions: list[Instruction], active: set[int] | None
    ) -> tuple[list[Instruction], set[int]]:
        """One sweep; rewrites are attempted only on ``active`` wires.

        ``active is None`` means "all wires" (the first sweep).  Returns the
        rewritten list and the set of wires that changed, which becomes the
        next sweep's worklist.  Merge/cancel bookkeeping pops exactly the
        removed instruction's own wires instead of scanning every wire the
        way ``_forget`` does.
        """
        out: list[Instruction] = []
        last_on_wire: dict[int, int] = {}
        changed: set[int] = set()
        for instr in instructions:
            considered = active is None or not active.isdisjoint(instr.qubits)
            if considered:
                if self._is_zero_rotation(instr):
                    changed.update(instr.qubits)
                    continue
                if instr.gate.is_unitary and instr.name != "barrier":
                    prev_idx = self._common_previous(instr, last_on_wire, out)
                    if prev_idx is not None:
                        merged = self._merge(out[prev_idx], instr)
                        if merged is not None:
                            out[prev_idx] = None  # type: ignore[call-overload]
                            # The wires pointing at ``prev_idx`` are exactly the
                            # merged pair's qubits (unitary gates have no clbits).
                            for qubit in instr.qubits:
                                last_on_wire.pop(qubit, None)
                            changed.update(instr.qubits)
                            if merged == "cancel":
                                continue
                            instr = merged
            out.append(instr)
            for qubit in instr.qubits:
                last_on_wire[qubit] = len(out) - 1
            for clbit in instr.clbits:
                last_on_wire[-1 - clbit] = len(out) - 1
        return [i for i in out if i is not None], changed

    def _single_pass(self, instructions: list[Instruction]) -> tuple[list[Instruction], bool]:
        out: list[Instruction] = []
        # index of the most recent instruction (in ``out``) on each wire
        last_on_wire: dict[int, int] = {}
        changed = False
        for instr in instructions:
            if self._is_zero_rotation(instr):
                changed = True
                continue
            if instr.gate.is_unitary and instr.name != "barrier":
                prev_idx = self._common_previous(instr, last_on_wire, out)
                if prev_idx is not None:
                    prev = out[prev_idx]
                    merged = self._merge(prev, instr)
                    if merged is not None:
                        changed = True
                        out[prev_idx] = None  # type: ignore[call-overload]
                        self._forget(prev_idx, last_on_wire)
                        if merged == "cancel":
                            continue
                        instr = merged
            out.append(instr)
            for qubit in instr.qubits:
                last_on_wire[qubit] = len(out) - 1
            for clbit in instr.clbits:
                last_on_wire[-1 - clbit] = len(out) - 1
        return [i for i in out if i is not None], changed

    @staticmethod
    def _is_zero_rotation(instr: Instruction) -> bool:
        if instr.name in ("rz", "rx", "ry", "p", "rzz", "rxx", "ryy", "rzx", "cp", "crx", "cry", "crz"):
            angle = instr.params[0] % (2 * np.pi)
            return min(angle, 2 * np.pi - angle) < 1e-12
        return False

    @staticmethod
    def _common_previous(
        instr: Instruction, last_on_wire: dict[int, int], out: list[Instruction]
    ) -> int | None:
        indices = {last_on_wire.get(q) for q in instr.qubits}
        if len(indices) != 1 or None in indices:
            return None
        idx = indices.pop()
        prev = out[idx]
        if prev is None or set(prev.qubits) != set(instr.qubits):
            return None
        return idx

    @staticmethod
    def _forget(index: int, last_on_wire: dict[int, int]) -> None:
        for wire in [w for w, i in last_on_wire.items() if i == index]:
            del last_on_wire[wire]

    @staticmethod
    def _merge(prev: Instruction, instr: Instruction):
        """Try to merge/cancel two adjacent gates on identical wires."""
        if not prev.gate.is_unitary:
            return None
        # Same-axis rotation merging (requires identical qubit order).
        if (
            prev.name == instr.name
            and prev.name in ("rz", "rx", "ry", "p", "rzz", "rxx", "ryy", "rzx", "cp", "crz", "crx", "cry")
            and prev.qubits == instr.qubits
        ):
            angle = prev.params[0] + instr.params[0]
            angle = (angle + np.pi) % (2 * np.pi) - np.pi
            if abs(angle) < 1e-12:
                return "cancel"
            return Instruction(Gate(prev.name, (angle,)), instr.qubits)
        # Exact inverse cancellation.
        try:
            inverse = instr.gate.inverse()
        except ValueError:
            return None
        spec = instr.gate.spec
        same_qubits = prev.qubits == instr.qubits or (
            spec.symmetric and set(prev.qubits) == set(instr.qubits)
        )
        if not same_qubits:
            return None
        if prev.gate.name == inverse.name and np.allclose(prev.gate.params, inverse.params, atol=1e-12):
            return "cancel"
        return None


for _cls in (Optimize1qGatesDecomposition, RemoveRedundancies):
    register_pass(_cls.name, _cls, overwrite=True)
del _cls
