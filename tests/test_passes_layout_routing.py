"""Unit tests for layout and routing passes."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.bench import benchmark_circuit
from repro.circuit import QuantumCircuit, random_circuit
from repro.devices import get_device
from repro.devices.device import NativeGateSet
from repro.linalg import allclose_up_to_global_phase, circuit_unitary
from repro.passes import (
    BasicSwap,
    BasisTranslator,
    DenseLayout,
    PassContext,
    SabreLayout,
    SabreSwap,
    StochasticSwap,
    TketRouting,
    TrivialLayout,
    apply_layout,
)
from repro.passes.routing import expand_swaps

_LAYOUTS = [TrivialLayout, DenseLayout, SabreLayout]
_ROUTERS = [BasicSwap, StochasticSwap, SabreSwap, TketRouting]


def _permutation_adjusted_equivalent(original, routed, final_layout, initial_layout, device):
    """Check unitary equivalence of a routed circuit up to the output permutation.

    Routing may permute qubits (tracked by ``final_layout``); appending SWAPs
    that undo the permutation must recover the laid-out circuit's unitary.
    """
    placed = apply_layout(original, initial_layout, device)
    fixed = routed.copy()
    # Undo the permutation: move each virtual wire back to its original position.
    current = dict(final_layout)
    for virtual in sorted(current):
        target = virtual
        actual = current[virtual]
        if actual == target:
            continue
        # find which virtual currently sits at `target`
        other = next(v for v, p in current.items() if p == target)
        fixed.swap(actual, target)
        current[virtual], current[other] = target, actual
    return allclose_up_to_global_phase(circuit_unitary(fixed), circuit_unitary(placed))


class TestLayouts:
    @pytest.mark.parametrize("layout_cls", _LAYOUTS)
    def test_layout_records_assignment(self, layout_cls, line5_device):
        circuit = random_circuit(3, 4, seed=1)
        context = PassContext(device=line5_device, seed=0)
        native = BasisTranslator().run(circuit, context)
        placed = layout_cls().run(native, context)
        assert placed.num_qubits == line5_device.num_qubits
        assert context.initial_layout is not None
        assert len(set(context.initial_layout.values())) == len(context.initial_layout)

    @pytest.mark.parametrize("layout_cls", _LAYOUTS)
    def test_layout_preserves_gate_counts(self, layout_cls, line5_device):
        circuit = random_circuit(3, 4, seed=2)
        context = PassContext(device=line5_device, seed=0)
        native = BasisTranslator().run(circuit, context)
        placed = layout_cls().run(native, context)
        assert placed.count_ops() == native.count_ops()

    def test_trivial_layout_is_identity(self, line5_device):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        context = PassContext(device=line5_device)
        TrivialLayout().run(circuit, context)
        assert context.initial_layout == {0: 0, 2: 2}

    def test_dense_layout_picks_connected_region(self, washington):
        circuit = QuantumCircuit(4)
        for q in range(3):
            circuit.cx(q, q + 1)
        context = PassContext(device=washington)
        DenseLayout().run(circuit, context)
        region = set(context.initial_layout.values())
        assert washington.coupling_map.subgraph_connected(region)

    def test_layout_rejects_too_large_circuits(self, line5_device):
        circuit = QuantumCircuit(9)
        for q in range(8):
            circuit.cx(q, q + 1)
        with pytest.raises(ValueError):
            TrivialLayout().run(circuit, PassContext(device=line5_device))

    def test_apply_layout_rejects_duplicate_targets(self, line5_device):
        circuit = QuantumCircuit(2)
        circuit.cx(0, 1)
        with pytest.raises(ValueError, match="same physical qubit"):
            apply_layout(circuit, {0: 1, 1: 1}, line5_device)


class TestRouting:
    @pytest.mark.parametrize("router_cls", _ROUTERS)
    @pytest.mark.parametrize("seed", range(3))
    def test_routed_circuit_satisfies_coupling(self, router_cls, seed, line5_device):
        circuit = random_circuit(4, 6, seed=seed)
        context = PassContext(device=line5_device, seed=seed)
        native = BasisTranslator().run(circuit, context)
        placed = TrivialLayout().run(native, context)
        routed = router_cls().run(placed, context)
        assert line5_device.mapping_satisfied(routed)
        assert line5_device.gates_native(routed)

    @pytest.mark.parametrize("router_cls", _ROUTERS)
    def test_routed_circuit_is_equivalent_up_to_permutation(self, router_cls, line5_device):
        circuit = random_circuit(4, 5, seed=11)
        context = PassContext(device=line5_device, seed=3)
        native = BasisTranslator().run(circuit, context)
        placed = TrivialLayout().run(native, context)
        routed = router_cls().run(placed, context)
        assert context.final_layout is not None
        assert _permutation_adjusted_equivalent(
            native, routed, context.final_layout, context.initial_layout, line5_device
        )

    @pytest.mark.parametrize("router_cls", _ROUTERS)
    def test_already_routed_circuit_untouched(self, router_cls, line5_device):
        circuit = QuantumCircuit(5)
        circuit.cx(0, 1)
        circuit.cx(1, 2)
        context = PassContext(device=line5_device, seed=0)
        routed = router_cls().run(circuit, context)
        assert routed.count_ops() == circuit.count_ops()

    @pytest.mark.parametrize("router_cls", _ROUTERS)
    def test_rejects_three_qubit_gates(self, router_cls, line5_device):
        circuit = QuantumCircuit(3)
        circuit.ccx(0, 1, 2)
        with pytest.raises(ValueError, match="at most two qubits"):
            router_cls().run(circuit, PassContext(device=line5_device))

    def test_sabre_beats_or_matches_basic_on_chain(self, washington):
        """SABRE's lookahead should not need more SWAPs than naive routing."""
        circuit = QuantumCircuit(8)
        rng = np.random.default_rng(5)
        for _ in range(15):
            a, b = rng.choice(8, size=2, replace=False)
            circuit.cx(int(a), int(b))
        context_basic = PassContext(device=washington, seed=1)
        context_sabre = PassContext(device=washington, seed=1)
        native = BasisTranslator().run(circuit, PassContext(device=washington))
        placed_basic = TrivialLayout().run(native, context_basic)
        placed_sabre = TrivialLayout().run(native, context_sabre)
        basic = BasicSwap().run(placed_basic, context_basic)
        sabre = SabreSwap().run(placed_sabre, context_sabre)
        assert sabre.num_two_qubit_gates() <= basic.num_two_qubit_gates() * 1.5

    @pytest.mark.parametrize("width", [4, 6, 8, 10])
    def test_sabre_layout_and_swap_map_qftentangled(self, width, washington):
        context = PassContext(device=washington, seed=1)
        native = BasisTranslator().run(benchmark_circuit("qftentangled", width), context)
        placed = SabreLayout(seed=1).run(native, context)
        routed = SabreSwap(seed=1).run(placed, context)
        assert washington.mapping_satisfied(routed)

    @pytest.mark.parametrize(
        ("family", "width", "device_name"),
        [
            ("qftentangled", 7, "ibmq_montreal"),
            ("pricingcall", 8, "ibmq_montreal"),
            ("qftentangled", 10, "rigetti_aspen_m2"),
        ],
    )
    def test_tket_routing_gives_up_within_its_swap_bound(
        self, family, width, device_name, monkeypatch
    ):
        """Each case cycles through SWAPs that never free its blocked gate."""
        device = get_device(device_name)
        context = PassContext(device=device, seed=0)
        native = BasisTranslator().run(benchmark_circuit(family, width), context)
        placed = TrivialLayout().run(native, context)
        choices = []
        best_swap = TketRouting._best_swap

        def counted(self, *args):
            choices.append(args)
            assert len(choices) < 20_000, "still routing after 20,000 SWAP choices"
            return best_swap(self, *args)

        monkeypatch.setattr(TketRouting, "_best_swap", counted)
        with pytest.raises(RuntimeError, match="TKET routing failed to make progress"):
            TketRouting().run(placed, context)
        # The guard lets 10*n + 100 choices through for the blocked gate, then raises.
        assert 10 * device.num_qubits + 100 <= len(choices) < 20_000

    def test_routing_on_non_cx_device_stays_native(self):
        device = get_device("oqc_lucy")
        circuit = random_circuit(4, 5, seed=9)
        context = PassContext(device=device, seed=2)
        native = BasisTranslator().run(circuit, context)
        placed = TrivialLayout().run(native, context)
        routed = SabreSwap().run(placed, context)
        assert device.gates_native(routed)
        assert device.mapping_satisfied(routed)

    def test_expand_swaps_without_cx_rule_raises(self):
        """SWAP expansion shares BasisTranslator's CX rules, and its error."""
        device = dataclasses.replace(
            get_device("oqc_lucy"), gate_set=NativeGateSet(("rz", "sx", "x"), ("iswap",))
        )
        circuit = QuantumCircuit(2)
        circuit.swap(0, 1)
        with pytest.raises(ValueError, match="no CX conversion rule"):
            expand_swaps(circuit, device)

    def test_measurements_are_remapped(self, line5_device):
        circuit = QuantumCircuit(3)
        circuit.cx(0, 2)
        circuit.measure_all()
        context = PassContext(device=line5_device, seed=0)
        placed = TrivialLayout().run(circuit, context)
        routed = BasicSwap().run(placed, context)
        assert routed.count_ops()["measure"] == 3
