"""Unit tests for the optimization passes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bench import benchmark_circuit
from repro.circuit import Gate, Instruction, QuantumCircuit, random_circuit
from repro.devices import get_device
from repro.linalg import (
    allclose_up_to_global_phase,
    circuit_unitary,
    kron_factor,
    synthesize_2q,
)
from repro.linalg import decompositions
from repro.passes import (
    BasisTranslator,
    CliffordSimp,
    Collect2qBlocksConsolidate,
    CommutativeCancellation,
    CommutativeInverseCancellation,
    CXCancellation,
    FullPeepholeOptimise,
    InverseCancellation,
    Optimize1qGatesDecomposition,
    OptimizeCliffords,
    PassContext,
    PeepholeOptimise2Q,
    RemoveDiagonalGatesBeforeMeasure,
    RemoveRedundancies,
)
from repro.passes.optimization import collect_2q_blocks, commutes
from repro.passes.optimization.blocks import (
    _block_unitary,
    _BlockResynthesis,
    _CliffordBlockResynthesis,
    _count_2q,
)

_ALL_OPTIMIZATION_PASSES = [
    Optimize1qGatesDecomposition,
    RemoveRedundancies,
    CXCancellation,
    InverseCancellation,
    CommutativeCancellation,
    CommutativeInverseCancellation,
    OptimizeCliffords,
    CliffordSimp,
    Collect2qBlocksConsolidate,
    PeepholeOptimise2Q,
    FullPeepholeOptimise,
]


class TestUnitaryPreservation:
    @pytest.mark.parametrize("pass_cls", _ALL_OPTIMIZATION_PASSES, ids=lambda c: c.__name__)
    @pytest.mark.parametrize("seed", range(4))
    def test_random_circuits(self, pass_cls, seed):
        circuit = random_circuit(4, 8, seed=seed)
        out = pass_cls().run(circuit, PassContext())
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    @pytest.mark.parametrize("pass_cls", _ALL_OPTIMIZATION_PASSES, ids=lambda c: c.__name__)
    def test_native_ibm_circuit(self, pass_cls, montreal):
        circuit = random_circuit(3, 6, seed=17)
        native = BasisTranslator().run(circuit, PassContext(device=montreal))
        out = pass_cls().run(native, PassContext(device=montreal))
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(native))

    @pytest.mark.parametrize("pass_cls", _ALL_OPTIMIZATION_PASSES, ids=lambda c: c.__name__)
    def test_never_increases_two_qubit_count(self, pass_cls):
        circuit = random_circuit(4, 10, seed=23)
        out = pass_cls().run(circuit, PassContext())
        assert out.num_two_qubit_gates() <= circuit.num_two_qubit_gates()

    @pytest.mark.parametrize("pass_cls", _ALL_OPTIMIZATION_PASSES, ids=lambda c: c.__name__)
    def test_empty_circuit_is_noop(self, pass_cls):
        circuit = QuantumCircuit(3)
        out = pass_cls().run(circuit, PassContext())
        assert len(out) == 0

    @pytest.mark.parametrize("pass_cls", _ALL_OPTIMIZATION_PASSES, ids=lambda c: c.__name__)
    def test_measurements_preserved(self, pass_cls):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.cx(0, 1)
        circuit.measure_all()
        out = pass_cls().run(circuit, PassContext())
        assert out.count_ops()["measure"] == 2


class TestOptimize1q:
    def test_merges_rotation_run(self):
        circuit = QuantumCircuit(1)
        circuit.rz(0.3, 0)
        circuit.rz(0.4, 0)
        circuit.rz(-0.1, 0)
        out = Optimize1qGatesDecomposition(basis="u3").run(circuit, PassContext())
        assert out.size() == 1

    def test_removes_identity_run(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.h(0)
        out = Optimize1qGatesDecomposition(basis="rz_sx").run(circuit, PassContext())
        assert out.size() == 0

    def test_uses_device_basis_from_context(self, montreal):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.t(0)
        circuit.h(0)
        out = Optimize1qGatesDecomposition().run(circuit, PassContext(device=montreal))
        assert out.gate_names() <= {"rz", "sx", "x"}

    def test_does_not_lengthen_in_basis_single_gate(self):
        circuit = QuantumCircuit(1)
        circuit.sx(0)
        out = Optimize1qGatesDecomposition(basis="rz_sx").run(circuit, PassContext())
        assert out.size() == 1

    def test_out_of_basis_gate_is_translated(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        out = Optimize1qGatesDecomposition(basis="rz_sx").run(circuit, PassContext())
        assert out.gate_names() <= {"rz", "sx"}

    def test_runs_bounded_by_two_qubit_gates(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.2, 0)
        circuit.cx(0, 1)
        circuit.rz(0.3, 0)
        out = Optimize1qGatesDecomposition(basis="u3").run(circuit, PassContext())
        # The CX prevents merging the two RZ gates.
        assert out.size() == 3


class TestCancellationPasses:
    def test_cx_cancellation_removes_adjacent_pair(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        out = CXCancellation().run(circuit, PassContext())
        assert out.size() == 0

    def test_cx_cancellation_keeps_reversed_pair(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(1, 0)
        out = CXCancellation().run(circuit, PassContext())
        assert out.size() == 2

    def test_cx_cancellation_blocked_by_gate_in_between(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.h(1)
        circuit.cx(0, 1)
        out = CXCancellation().run(circuit, PassContext())
        assert out.size() == 3

    def test_inverse_cancellation_named_pairs(self):
        circuit = QuantumCircuit(1)
        circuit.s(0)
        circuit.sdg(0)
        circuit.t(0)
        circuit.tdg(0)
        out = InverseCancellation().run(circuit, PassContext())
        assert out.size() == 0

    def test_inverse_cancellation_rotations(self):
        circuit = QuantumCircuit(1)
        circuit.rx(0.4, 0)
        circuit.rx(-0.4, 0)
        out = InverseCancellation().run(circuit, PassContext())
        assert out.size() == 0

    def test_commutative_cancellation_through_control(self):
        # rz commutes with the control of CX: rz . cx . rz^-1 . cx -> nothing
        circuit = QuantumCircuit(2)
        circuit.rz(0.5, 0)
        circuit.cx(0, 1)
        circuit.rz(-0.5, 0)
        circuit.cx(0, 1)
        out = CommutativeCancellation().run(circuit, PassContext())
        assert out.size() == 0

    def test_commutative_cancellation_through_target(self):
        # x commutes with the target of CX.
        circuit = QuantumCircuit(2)
        circuit.x(1)
        circuit.cx(0, 1)
        circuit.x(1)
        circuit.cx(0, 1)
        out = CommutativeCancellation().run(circuit, PassContext())
        assert out.size() == 0

    def test_commutative_cancellation_does_not_cancel_non_commuting(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.5, 1)  # acts on the TARGET of the cx: does not commute
        circuit.cx(0, 1)
        circuit.rz(-0.5, 1)
        out = CommutativeCancellation().run(circuit, PassContext())
        assert out.size() == 3

    def test_commutative_cancellation_merges_rotations(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.25, 0)
        circuit.cx(0, 1)
        circuit.rz(0.5, 0)
        out = CommutativeCancellation().run(circuit, PassContext())
        rz_gates = [i for i in out if i.name == "rz"]
        assert len(rz_gates) == 1
        assert rz_gates[0].params[0] == pytest.approx(0.75)

    def test_commutative_inverse_handles_arbitrary_gates(self):
        circuit = QuantumCircuit(2)
        circuit.crz(0.7, 0, 1)
        circuit.rz(0.2, 0)
        circuit.crz(-0.7, 0, 1)
        out = CommutativeInverseCancellation().run(circuit, PassContext())
        assert out.size() == 1

    def test_remove_diagonal_before_measure(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.rz(0.3, 0)
        circuit.t(1)
        circuit.measure_all()
        out = RemoveDiagonalGatesBeforeMeasure().run(circuit, PassContext())
        assert "rz" not in out.gate_names()
        assert "t" not in out.gate_names()
        assert "h" in out.gate_names()

    def test_remove_diagonal_keeps_gates_not_before_measure(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.3, 0)
        circuit.h(0)
        circuit.measure(0, 0)
        out = RemoveDiagonalGatesBeforeMeasure().run(circuit, PassContext())
        assert "rz" in out.gate_names()

    def test_remove_diagonal_two_qubit_gate(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(1)
        circuit.cz(0, 1)
        circuit.measure_all()
        out = RemoveDiagonalGatesBeforeMeasure().run(circuit, PassContext())
        assert "cz" not in out.gate_names()


class TestCommutationRules:
    def test_disjoint_gates_commute(self):
        a = Instruction(Gate("h"), (0,))
        b = Instruction(Gate("x"), (1,))
        assert commutes(a, b)

    def test_diagonal_gates_commute(self):
        a = Instruction(Gate("rz", (0.3,)), (0,))
        b = Instruction(Gate("cz"), (0, 1))
        assert commutes(a, b)

    def test_control_side_diagonal_commutes_with_cx(self):
        a = Instruction(Gate("t"), (0,))
        b = Instruction(Gate("cx"), (0, 1))
        assert commutes(a, b)

    def test_target_side_x_commutes_with_cx(self):
        a = Instruction(Gate("sx"), (1,))
        b = Instruction(Gate("cx"), (0, 1))
        assert commutes(a, b)

    def test_target_side_z_does_not_commute_with_cx(self):
        a = Instruction(Gate("rz", (0.3,)), (1,))
        b = Instruction(Gate("cx"), (0, 1))
        assert not commutes(a, b)

    def test_cx_sharing_control_commute(self):
        a = Instruction(Gate("cx"), (0, 1))
        b = Instruction(Gate("cx"), (0, 2))
        assert commutes(a, b)

    def test_cx_sharing_target_commute(self):
        a = Instruction(Gate("cx"), (0, 2))
        b = Instruction(Gate("cx"), (1, 2))
        assert commutes(a, b)

    def test_overlapping_cx_do_not_commute(self):
        a = Instruction(Gate("cx"), (0, 1))
        b = Instruction(Gate("cx"), (1, 2))
        assert not commutes(a, b)

    def test_measure_never_commutes(self):
        a = Instruction(Gate("measure"), (0,), (0,))
        b = Instruction(Gate("rz", (0.1,)), (0,))
        assert not commutes(a, b)

    def test_conservative_rules_are_sound(self):
        """Every pair the rules declare commuting must actually commute."""
        from repro.linalg import instruction_unitary

        candidates = [
            Instruction(Gate("rz", (0.4,)), (0,)),
            Instruction(Gate("x"), (1,)),
            Instruction(Gate("sx"), (1,)),
            Instruction(Gate("t"), (2,)),
            Instruction(Gate("cx"), (0, 1)),
            Instruction(Gate("cx"), (0, 2)),
            Instruction(Gate("cx"), (1, 2)),
            Instruction(Gate("cz"), (0, 1)),
            Instruction(Gate("rzz", (0.7,)), (1, 2)),
            Instruction(Gate("swap"), (0, 2)),
        ]
        for a in candidates:
            for b in candidates:
                if commutes(a, b):
                    ua = instruction_unitary(a, 3)
                    ub = instruction_unitary(b, 3)
                    assert np.allclose(ua @ ub, ub @ ua), (a, b)


class TestRemoveRedundancies:
    def test_zero_angle_rotations_removed(self):
        circuit = QuantumCircuit(2)
        circuit.rz(0.0, 0)
        circuit.rzz(2 * np.pi, 0, 1)
        circuit.h(0)
        out = RemoveRedundancies().run(circuit, PassContext())
        assert out.size() == 1

    def test_adjacent_rotations_merged(self):
        circuit = QuantumCircuit(1)
        circuit.rx(0.3, 0)
        circuit.rx(0.4, 0)
        out = RemoveRedundancies().run(circuit, PassContext())
        assert out.size() == 1
        assert out[0].params[0] == pytest.approx(0.7)

    def test_self_inverse_pair_cancelled(self):
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        circuit.swap(1, 0)
        out = RemoveRedundancies().run(circuit, PassContext())
        assert out.size() == 0

    def test_identity_gates_dropped(self):
        circuit = QuantumCircuit(1)
        circuit.i(0)
        circuit.i(0)
        out = RemoveRedundancies().run(circuit, PassContext())
        assert out.size() == 0


class TestCliffordPasses:
    def test_optimize_cliffords_folds_run(self):
        circuit = QuantumCircuit(1)
        circuit.h(0)
        circuit.s(0)
        circuit.s(0)
        circuit.h(0)  # H Z H = X: should fold to a single gate
        out = OptimizeCliffords().run(circuit, PassContext())
        assert out.size() <= 2
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    def test_optimize_cliffords_leaves_non_clifford(self):
        circuit = QuantumCircuit(1)
        circuit.t(0)
        circuit.h(0)
        out = OptimizeCliffords().run(circuit, PassContext())
        assert "t" in out.gate_names()

    def test_clifford_simp_reduces_cx_pattern(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        circuit.h(0)
        circuit.h(0)
        out = CliffordSimp().run(circuit, PassContext())
        assert out.size() == 0


class TestBlockPasses:
    def test_collect_blocks_finds_pair_block(self):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 1)
        circuit.rz(0.3, 1)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        blocks = collect_2q_blocks(circuit)
        sizes = sorted(len(b) for b in blocks)
        assert sizes == [1, 3]

    def test_consolidate_reduces_redundant_block(self):
        circuit = QuantumCircuit(2)
        # Three CX and interleaved 1q rotations that fuse to something simpler.
        circuit.cx(0, 1)
        circuit.rz(0.2, 0)
        circuit.cx(0, 1)
        circuit.rz(-0.2, 0)
        circuit.cx(0, 1)
        out = Collect2qBlocksConsolidate().run(circuit, PassContext())
        assert out.num_two_qubit_gates() <= 2
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    def test_consolidate_keeps_efficient_block(self):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        out = Collect2qBlocksConsolidate().run(circuit, PassContext())
        assert out.num_two_qubit_gates() == 1

    def test_peephole_cleans_single_qubit_gates_too(self):
        circuit = QuantumCircuit(2)
        circuit.h(0)
        circuit.h(0)
        circuit.cx(0, 1)
        out = PeepholeOptimise2Q().run(circuit, PassContext())
        assert out.size() == 1

    def test_full_peephole_on_larger_circuit(self):
        circuit = random_circuit(4, 15, seed=31)
        out = FullPeepholeOptimise().run(circuit, PassContext())
        assert out.size() <= circuit.size()
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))

    def test_block_resynthesis_respects_device_basis(self):
        device = get_device("rigetti_aspen_m2")
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.rz(0.2, 0)
        circuit.cx(0, 1)
        circuit.rz(-0.2, 0)
        circuit.cx(0, 1)
        out = Collect2qBlocksConsolidate().run(circuit, PassContext(device=device))
        assert allclose_up_to_global_phase(circuit_unitary(out), circuit_unitary(circuit))


# ---------------------------------------------------------------------------
# Block pricing: decompose each distinct block once, emit only the winners
# ---------------------------------------------------------------------------

_BASES = ("rz_sx", "rz_rx", "rz_ry", "u3")
_BLOCK_PASSES = (Collect2qBlocksConsolidate, PeepholeOptimise2Q, _CliffordBlockResynthesis)


def _basis_context(basis: str) -> PassContext:
    base = get_device("ibmq_montreal")
    gate_set = dataclasses.replace(base.gate_set, basis_1q=basis)
    return PassContext(device=dataclasses.replace(base, gate_set=gate_set))


def _has_clifford_block(circuit: QuantumCircuit) -> bool:
    return any(
        all(circuit.instructions[i].gate.spec.clifford for i in block.indices)
        for block in collect_2q_blocks(circuit)
    )


def _eligible_blocks(pass_obj, circuit):
    """(block, old instructions, unitary) for every block the pass considers."""
    if isinstance(pass_obj, _CliffordBlockResynthesis) and not _has_clifford_block(circuit):
        return []
    out = []
    for block in collect_2q_blocks(circuit):
        old = [circuit.instructions[i] for i in block.indices]
        if _count_2q(old) >= pass_obj.min_block_2q:
            out.append((block, old, _block_unitary(circuit, block)))
    return out


def _reference_resynthesis(pass_obj, circuit, context):
    """The synthesise-every-block loop: build each replacement, then compare."""
    basis_1q = context.device.gate_set.basis_1q
    replacements, removed = {}, set()
    for block, old, unitary in _eligible_blocks(pass_obj, circuit):
        try:
            ops, _ = synthesize_2q(unitary, basis_1q=basis_1q)
        except RuntimeError:
            continue
        local = {0: block.qubits[0], 1: block.qubits[1]}
        new = [Instruction(gate, tuple(local[q] for q in qubits)) for gate, qubits in ops]
        old_2q, new_2q = _count_2q(old), _count_2q(new)
        if new_2q < old_2q or (
            pass_obj.accept_on_tie and new_2q == old_2q and len(new) < len(old)
        ):
            replacements[block.indices[0]] = new
            removed |= set(block.indices)
    out = []
    for i, instr in enumerate(circuit.instructions):
        out.extend(replacements.get(i, ()))
        if i not in removed:
            out.append(instr)
    if isinstance(pass_obj, PeepholeOptimise2Q):
        rebuilt = QuantumCircuit(circuit.num_qubits, circuit.num_clbits)
        for instr in out:
            rebuilt.append_instruction(instr)
        rebuilt = Optimize1qGatesDecomposition().run(rebuilt, context)
        return list(RemoveRedundancies().run(rebuilt, context).instructions)
    return out


def _pricing_corpus() -> QuantumCircuit:
    """Blocks of every kind the pricing must tell apart, on four qubits.

    (0,1) and (2,3) carry the same 2-CX block (a repeated unitary that ties
    under ``accept_on_tie``); (1,2) carries a 3-CX block that the emitter
    would re-synthesise with 6 CX; the later (0,1) blocks re-synthesise to
    no CX (a Clifford-only block) and to 2 CX from 3.
    """
    circuit = QuantumCircuit(4)
    for a, b in ((0, 1), (2, 3)):
        circuit.cx(a, b)
        circuit.rz(0.3, b)
        circuit.cx(a, b)
        for _ in range(3):
            circuit.t(a)
            circuit.h(b)
    circuit.cx(1, 2)
    circuit.u(0.3, 0.5, 0.7, 1)
    circuit.u(1.1, 0.2, 0.4, 2)
    circuit.cx(2, 1)
    circuit.rx(0.9, 1)
    circuit.ry(0.6, 2)
    circuit.cx(1, 2)
    circuit.cx(0, 1)
    circuit.x(0)
    circuit.cx(0, 1)
    circuit.cx(0, 3)
    circuit.rz(0.2, 0)
    circuit.cx(0, 3)
    circuit.rz(-0.2, 0)
    circuit.cx(0, 3)
    return circuit


def _equivalence_corpus() -> list[QuantumCircuit]:
    circuits = [_pricing_corpus()]
    circuits += [random_circuit(4, 12, seed=seed) for seed in range(4)]
    circuits += [
        benchmark_circuit(family, 4)
        for family in ("qft", "qaoa", "realamprandom", "graphstate", "vqe", "dj")
    ]
    return circuits


class TestBlockPricing:
    @pytest.mark.parametrize("basis", _BASES)
    @pytest.mark.parametrize("pass_cls", _BLOCK_PASSES, ids=lambda c: c.__name__)
    def test_same_instructions_as_synthesising_every_block(self, pass_cls, basis):
        context = _basis_context(basis)
        for circuit in _equivalence_corpus():
            for source in (circuit, BasisTranslator().run(circuit, context)):
                expected = _reference_resynthesis(pass_cls(), source, context)
                assert pass_cls().run(source, context).instructions == expected

    def test_corpus_has_a_repeat_a_six_cx_block_and_winners(self):
        eligible = _eligible_blocks(_CliffordBlockResynthesis(), _pricing_corpus())
        keys = [unitary.tobytes() for _, _, unitary in eligible]
        assert len(set(keys)) < len(keys)
        costs = [
            (_count_2q(old), sum(1 for _, q in synthesize_2q(u)[0] if len(q) == 2))
            for _, old, u in eligible
        ]
        assert (3, 6) in costs
        assert (2, 2) in costs
        assert any(new < old for old, new in costs)

    @pytest.mark.parametrize("basis", _BASES)
    @pytest.mark.parametrize("pass_cls", _BLOCK_PASSES, ids=lambda c: c.__name__)
    def test_decomposes_each_distinct_block_once_and_emits_only_winners(
        self, pass_cls, basis, monkeypatch
    ):
        pass_obj, context = pass_cls(), _basis_context(basis)
        circuit = _pricing_corpus()
        distinct_entangling, expected_1q, emitted = set(), 0, 0
        for _, old, unitary in _eligible_blocks(pass_obj, circuit):
            local = kron_factor(unitary) is not None
            if not local:
                distinct_entangling.add(unitary.tobytes())
            ops, _ = synthesize_2q(unitary, basis_1q=basis)
            old_2q, new_2q = _count_2q(old), sum(1 for _, q in ops if len(q) == 2)
            if new_2q < old_2q or (pass_obj.accept_on_tie and new_2q == old_2q):
                emitted += 1
                expected_1q += 2 if local else 4
        assert emitted and expected_1q

        counts = {"weyl_decompose": 0, "synthesize_1q": 0}

        def counting(name):
            original = getattr(decompositions, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in counts:
            monkeypatch.setattr(decompositions, name, counting(name))
        if isinstance(pass_obj, PeepholeOptimise2Q):
            # Leave out the 1q clean-up that follows the block loop.
            _BlockResynthesis.run(pass_obj, circuit, context)
        else:
            pass_obj.run(circuit, context)
        assert counts == {
            "weyl_decompose": len(distinct_entangling),
            "synthesize_1q": expected_1q,
        }

    def test_clifford_pass_gates_on_a_clifford_block(self, monkeypatch):
        # No Clifford-only block: nothing is decomposed and the input comes back.
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        circuit.t(1)
        circuit.cx(0, 1)
        circuit.cx(0, 1)
        calls = []
        monkeypatch.setattr(decompositions, "weyl_decompose", lambda *a: calls.append(a))
        out = _CliffordBlockResynthesis().run(circuit, PassContext())
        assert out.instructions == circuit.instructions and calls == []
