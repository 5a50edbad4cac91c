"""Unit tests for device models, topologies, and calibration."""

from __future__ import annotations

import pickle

import numpy as np
import pytest

import repro
from repro.bench import benchmark_circuit
from repro.circuit import QuantumCircuit
from repro.devices import (
    Calibration,
    CouplingMap,
    Device,
    NativeGateSet,
    all_to_all_map,
    aspen_map,
    devices_for_platform,
    get_device,
    grid_map,
    heavy_hex_map,
    ibm_eagle_127_map,
    ibm_falcon_27_map,
    line_map,
    list_devices,
    list_platforms,
    platform_gate_set,
    ring_map,
)


class TestCouplingMap:
    def test_add_edge_and_neighbors(self):
        cmap = CouplingMap(3, [(0, 1), (1, 2)])
        assert cmap.neighbors(1) == {0, 2}
        assert cmap.degree(0) == 1

    def test_self_loop_rejected(self):
        cmap = CouplingMap(2)
        with pytest.raises(ValueError):
            cmap.add_edge(1, 1)

    def test_out_of_range_edge_rejected(self):
        cmap = CouplingMap(2)
        with pytest.raises(ValueError):
            cmap.add_edge(0, 5)

    def test_are_connected_is_undirected(self):
        cmap = CouplingMap(3, [(0, 1)])
        assert cmap.are_connected(0, 1)
        assert cmap.are_connected(1, 0)
        assert not cmap.are_connected(0, 2)

    def test_distance_matrix_line(self):
        cmap = line_map(4)
        distances = cmap.distance_matrix()
        assert distances[0, 3] == 3
        assert distances[1, 2] == 1
        assert distances[2, 2] == 0

    def test_shortest_path_endpoints(self):
        cmap = line_map(5)
        path = cmap.shortest_path(0, 4)
        assert path[0] == 0 and path[-1] == 4
        assert len(path) == 5

    def test_shortest_path_disconnected_raises(self):
        cmap = CouplingMap(4, [(0, 1), (2, 3)])
        with pytest.raises(ValueError):
            cmap.shortest_path(0, 3)

    def test_all_to_all(self):
        cmap = CouplingMap.all_to_all(4)
        assert cmap.is_fully_connected()
        assert len(cmap.edges) == 6

    def test_subgraph_connected(self):
        cmap = line_map(5)
        assert cmap.subgraph_connected({1, 2, 3})
        assert not cmap.subgraph_connected({0, 2})

    def test_is_connected_graph(self):
        assert line_map(6).is_connected_graph()
        assert not CouplingMap(4, [(0, 1)]).is_connected_graph()

    def test_pickle_leaves_out_the_distance_cache(self):
        result = repro.compile(
            benchmark_circuit("qft", 5), backend="qiskit-o3", device="ibmq_washington"
        )
        original = result.device.coupling_map.distance_matrix()
        payload = pickle.dumps(result)
        assert len(payload) < 20_000
        restored = pickle.loads(payload).device.coupling_map
        assert restored._distance is None
        assert np.array_equal(restored.distance_matrix(), original)
        assert result.device.coupling_map._distance is original


class TestTopologies:
    def test_line_ring_grid_sizes(self):
        assert len(line_map(10).edges) == 9
        assert len(ring_map(10).edges) == 10
        assert len(grid_map(3, 4).edges) == 3 * 3 + 2 * 4

    def test_falcon_27(self):
        cmap = ibm_falcon_27_map()
        assert cmap.num_qubits == 27
        assert cmap.is_connected_graph()
        assert max(cmap.degree(q) for q in range(27)) <= 3

    def test_eagle_127(self):
        cmap = ibm_eagle_127_map()
        assert cmap.num_qubits == 127
        assert cmap.is_connected_graph()
        assert max(cmap.degree(q) for q in range(127)) <= 3

    def test_heavy_hex_generic(self):
        cmap = heavy_hex_map(3, 7)
        assert cmap.is_connected_graph()

    def test_aspen_80(self):
        cmap = aspen_map(5, 2)
        assert cmap.num_qubits == 80
        assert cmap.is_connected_graph()

    def test_all_to_all_map(self):
        cmap = all_to_all_map(5)
        assert cmap.is_fully_connected()


class TestNativeGateSet:
    def test_membership(self):
        gate_set = NativeGateSet(("rz", "sx", "x"), ("cx",))
        assert gate_set.is_native("rz")
        assert gate_set.is_native("cx")
        assert not gate_set.is_native("h")

    def test_structural_ops_always_native(self):
        gate_set = NativeGateSet(("rz",), ("cz",))
        assert gate_set.is_native("measure")
        assert gate_set.is_native("barrier")
        assert gate_set.is_native("id")


class TestCalibration:
    def test_synthetic_is_deterministic(self):
        cmap = line_map(5)
        a = Calibration.synthetic(cmap, seed=3, single_qubit_error=1e-3, two_qubit_error=1e-2, readout_error=1e-2)
        b = Calibration.synthetic(cmap, seed=3, single_qubit_error=1e-3, two_qubit_error=1e-2, readout_error=1e-2)
        assert a.single_qubit_error == b.single_qubit_error
        assert a.two_qubit_error == b.two_qubit_error

    def test_gate_error_lookup(self):
        cmap = line_map(3)
        cal = Calibration.synthetic(cmap, seed=1, single_qubit_error=1e-3, two_qubit_error=1e-2, readout_error=2e-2)
        assert 0 < cal.gate_error((0,)) < 0.1
        assert 0 < cal.gate_error((0, 1)) < 0.2
        assert cal.gate_error((0, 1)) == cal.gate_error((1, 0))

    def test_unknown_pair_uses_default(self):
        cal = Calibration(default_two_qubit_error=0.05)
        assert cal.gate_error((3, 7)) == 0.05

    def test_multi_qubit_gate_error_is_pessimistic(self):
        cal = Calibration(default_two_qubit_error=0.01)
        assert cal.gate_error((0, 1, 2)) >= cal.gate_error((0, 1))

    def test_t2_not_more_than_twice_t1(self):
        cmap = line_map(8)
        cal = Calibration.synthetic(cmap, seed=4, single_qubit_error=1e-3, two_qubit_error=1e-2, readout_error=1e-2)
        for q in range(8):
            assert cal.t2_us[q] <= 2 * cal.t1_us[q] + 1e-9


class TestDeviceRegistry:
    def test_all_registered_devices_exist(self):
        names = list_devices()
        assert set(names) == {
            "ibmq_montreal",
            "ibmq_washington",
            "rigetti_aspen_m2",
            "ionq_harmony",
            "oqc_lucy",
        }

    def test_qubit_counts_match_paper(self):
        assert get_device("ibmq_montreal").num_qubits == 27
        assert get_device("ibmq_washington").num_qubits == 127
        assert get_device("rigetti_aspen_m2").num_qubits == 80
        assert get_device("ionq_harmony").num_qubits == 11
        assert get_device("oqc_lucy").num_qubits == 8

    def test_platforms(self):
        assert list_platforms() == ["ibm", "ionq", "oqc", "rigetti"]
        assert {d.name for d in devices_for_platform("ibm")} == {"ibmq_montreal", "ibmq_washington"}

    def test_unknown_device_raises(self):
        with pytest.raises(KeyError):
            get_device("ibmq_atlantis")

    def test_unknown_platform_raises(self):
        with pytest.raises(KeyError):
            devices_for_platform("google")
        with pytest.raises(KeyError):
            platform_gate_set("google")

    def test_gate_sets_match_platform_hardware(self):
        assert "cx" in get_device("ibmq_montreal").gate_set.two_qubit
        assert "cz" in get_device("rigetti_aspen_m2").gate_set.two_qubit
        assert "rxx" in get_device("ionq_harmony").gate_set.two_qubit
        assert "ecr" in get_device("oqc_lucy").gate_set.two_qubit

    def test_ionq_all_to_all(self):
        assert get_device("ionq_harmony").coupling_map.is_fully_connected()


class TestDeviceConstraints:
    def test_gates_native(self, montreal):
        circuit = QuantumCircuit(2)
        circuit.rz(0.1, 0)
        circuit.sx(0)
        circuit.cx(0, 1)
        assert montreal.gates_native(circuit)
        circuit.h(1)
        assert not montreal.gates_native(circuit)

    def test_mapping_satisfied_respects_coupling(self, montreal):
        connected = QuantumCircuit(27)
        a, b = montreal.coupling_map.edges[0]
        connected.cx(a, b)
        assert montreal.mapping_satisfied(connected)

        disconnected = QuantumCircuit(27)
        far_a, far_b = 0, 26
        assert not montreal.coupling_map.are_connected(far_a, far_b)
        disconnected.cx(far_a, far_b)
        assert not montreal.mapping_satisfied(disconnected)

    def test_mapping_rejects_three_qubit_gates(self, montreal):
        circuit = QuantumCircuit(27)
        circuit.ccx(0, 1, 2)
        assert not montreal.mapping_satisfied(circuit)

    def test_mapping_rejects_too_wide_circuits(self, montreal):
        circuit = QuantumCircuit(50)
        circuit.h(40)
        assert not montreal.mapping_satisfied(circuit)

    def test_is_executable_combines_both(self, montreal):
        circuit = QuantumCircuit(27)
        a, b = montreal.coupling_map.edges[0]
        circuit.rz(0.3, a)
        circuit.cx(a, b)
        assert montreal.is_executable(circuit)
        circuit.h(a)
        assert not montreal.is_executable(circuit)
