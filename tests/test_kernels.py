"""Property and regression tests for the batched hot-path kernels.

Four families of guarantees are pinned here:

* **bit-identity** — ``gate_matrices_batch`` / ``run_products_batch`` must
  reproduce the scalar constructions byte-for-byte (the golden preset traces
  depend on it);
* **equivalence** — ``synthesize_1q_batch`` emits the same gate sequences as
  per-matrix ``synthesize_1q`` across random SU(2) inputs in every basis, the
  batched feature vectors equal the per-circuit path across the benchmark
  suite, and the incremental ``RemoveRedundancies`` matches the fixed point
  of the reference single-pass sweep;
* **golden guard** — the batched ``Optimize1qGatesDecomposition`` is compared
  against the scalar ``_resynthesize`` reference on real preset-flow
  circuits, and the golden cases exercising the pass are re-pinned, so a
  kernel regression fails here with a pointed message before it fails in the
  broad trace test;
* **mechanism counts** — each fast path is pinned by a deterministic count
  of the work it exists to avoid, not by a wall-clock ratio: one batched
  resynthesis per pass run and no scalar one, no ``DAGCircuit`` built for a
  feature batch, and fewer rewrite attempts for the incremental worklist
  than for full resweeps.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.bench import benchmark_circuit, benchmark_suite
from repro.circuit import QuantumCircuit
from repro.circuit.dag import DAGCircuit
from repro.circuit.gates import Gate, Instruction, gate_matrix
from repro.compilers import preset_pass_manager, run_preset_manager
from repro.devices import get_device
from repro.features import FEATURE_NAMES, feature_dict, feature_vector, feature_vectors_batch
from repro.features.supermarq import (
    critical_depth,
    entanglement_ratio,
    liveness,
    parallelism,
    program_communication,
)
from repro.linalg import (
    allclose_up_to_global_phase,
    allclose_up_to_global_phase_batch,
    gate_matrices_batch,
    run_products_batch,
    synthesize_1q,
    synthesize_1q_batch,
    u3_angles,
    u3_angles_batch,
)
from repro.passes import BasisTranslator, Optimize1qGatesDecomposition, RemoveRedundancies
from repro.passes.base import PassContext

_GOLDEN_PATH = Path(__file__).parent / "golden" / "preset_traces.json"

#: gate families the batched constructors must cover (parameterless + parametrised)
_PARAMETERLESS = ["id", "x", "y", "z", "h", "s", "sdg", "t", "tdg", "sx", "sxdg"]
_ONE_PARAM = ["rz", "rx", "ry", "p"]


def _random_1q_gates(rng: np.random.Generator, n: int) -> list[Gate]:
    gates = []
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 0:
            gates.append(Gate(str(rng.choice(_PARAMETERLESS))))
        elif kind == 1:
            gates.append(Gate(str(rng.choice(_ONE_PARAM)), (float(rng.uniform(-4, 4)),)))
        elif kind == 2:
            gates.append(Gate("u", tuple(float(v) for v in rng.uniform(-4, 4, 3))))
        else:
            gates.append(Gate("u2", tuple(float(v) for v in rng.uniform(-4, 4, 2))))
    return gates


def _random_su2_products(rng: np.random.Generator, n: int) -> np.ndarray:
    """Random 2x2 unitaries built exactly like the pass builds run products."""
    out = np.empty((n, 2, 2), dtype=complex)
    for i in range(n):
        product = np.eye(2, dtype=complex)
        for gate in _random_1q_gates(rng, int(rng.integers(1, 7))):
            product = gate_matrix(gate) @ product
        out[i] = product
    return out


class TestGateMatricesBatch:
    def test_bit_identical_to_scalar_constructor(self):
        rng = np.random.default_rng(7)
        gates = _random_1q_gates(rng, 300)
        batch = gate_matrices_batch(gates)
        for i, gate in enumerate(gates):
            expected = gate_matrix(gate)
            assert batch[i].tobytes() == expected.tobytes(), gate.name

    def test_rejects_multi_qubit_gates(self):
        with pytest.raises(ValueError):
            gate_matrices_batch([Gate("cx")])

    def test_empty_input(self):
        assert gate_matrices_batch([]).shape == (0, 2, 2)


class TestRunProductsBatch:
    def test_bit_identical_to_sequential_products(self):
        rng = np.random.default_rng(11)
        runs = [_random_1q_gates(rng, int(rng.integers(1, 9))) for _ in range(40)]
        flat = [g for run in runs for g in run]
        products = run_products_batch(gate_matrices_batch(flat), [len(r) for r in runs])
        for i, run in enumerate(runs):
            expected = np.eye(2, dtype=complex)
            for gate in run:
                expected = gate_matrix(gate) @ expected
            assert products[i].tobytes() == expected.tobytes()

    def test_empty_batch(self):
        assert run_products_batch(np.empty((0, 2, 2), dtype=complex), []).shape == (0, 2, 2)


class TestAllcloseUpToGlobalPhaseBatch:
    def test_matches_scalar_check(self):
        rng = np.random.default_rng(13)
        a = _random_su2_products(rng, 60)
        b = _random_su2_products(rng, 60)
        # Mix in exact matches, phase-shifted matches, and mismatches.
        b[::3] = a[::3]
        b[1::3] = a[1::3] * np.exp(0.37j)
        batch = allclose_up_to_global_phase_batch(a, b)
        for i in range(len(a)):
            assert batch[i] == allclose_up_to_global_phase(a[i], b[i])

    def test_broadcast_single_target(self):
        eye = np.eye(2, dtype=complex)
        stack = np.stack([eye, np.exp(1.2j) * eye, gate_matrix(Gate("x"))])
        result = allclose_up_to_global_phase_batch(stack, eye)
        assert list(result) == [True, True, False]


class TestU3AnglesBatch:
    def test_matches_scalar_angles(self):
        rng = np.random.default_rng(17)
        matrices = _random_su2_products(rng, 80)
        theta, phi, lam, phase = u3_angles_batch(matrices)
        for i in range(len(matrices)):
            st, sp, sl, sph = u3_angles(matrices[i])
            assert theta[i] == pytest.approx(st, abs=1e-12)
            assert phi[i] == pytest.approx(sp, abs=1e-12)
            assert lam[i] == pytest.approx(sl, abs=1e-12)
            assert phase[i] == pytest.approx(sph, abs=1e-12)

    def test_degenerate_diagonal_and_antidiagonal(self):
        matrices = np.stack(
            [gate_matrix(Gate("rz", (0.7,))), gate_matrix(Gate("x")), np.eye(2, dtype=complex)]
        )
        theta, phi, lam, phase = u3_angles_batch(matrices)
        for i in range(len(matrices)):
            st, sp, sl, sph = u3_angles(matrices[i])
            assert (theta[i], phi[i], lam[i], phase[i]) == (st, sp, sl, sph)


class TestSynthesize1qBatch:
    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry", "u3"])
    def test_equivalent_to_scalar_synthesis(self, basis):
        rng = np.random.default_rng(23)
        matrices = _random_su2_products(rng, 100)
        batch = synthesize_1q_batch(matrices, basis)
        for i in range(len(matrices)):
            scalar = synthesize_1q(matrices[i], basis)
            got = batch[i]
            assert [(g.name, g.params) for g in got.gates] == [
                (g.name, g.params) for g in scalar.gates
            ]
            # Phases may pick a different argmax element on exact magnitude
            # ties; they must still describe the same global phase.
            delta = (got.global_phase - scalar.global_phase) % (2 * np.pi)
            assert min(delta, 2 * np.pi - delta) < 1e-7

    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry"])
    def test_reconstruction_matches_input(self, basis):
        rng = np.random.default_rng(29)
        matrices = _random_su2_products(rng, 30)
        for matrix, decomp in zip(matrices, synthesize_1q_batch(matrices, basis)):
            product = np.eye(2, dtype=complex)
            for gate in decomp.gates:
                product = gate_matrix(gate) @ product
            assert allclose_up_to_global_phase(product, matrix)

    def test_empty_batch(self):
        assert synthesize_1q_batch(np.empty((0, 2, 2), dtype=complex)) == []

    def test_unknown_basis_rejected(self):
        with pytest.raises(ValueError):
            synthesize_1q_batch(np.eye(2, dtype=complex)[None], "bogus")


class TestFeatureBatchEquivalence:
    @pytest.fixture(scope="class")
    def suite(self):
        return benchmark_suite(min_qubits=2, max_qubits=6, step=2)

    def test_batched_vectors_equal_per_circuit(self, suite):
        batch = feature_vectors_batch(suite)
        assert batch.shape == (len(suite), len(FEATURE_NAMES))
        for i, circuit in enumerate(suite):
            assert np.array_equal(batch[i], feature_vector(circuit)), circuit.name

    def test_vector_equals_dict_in_feature_order(self, suite):
        # Satellite regression: the direct array path must reproduce the old
        # dict-then-readout values exactly, in FEATURE_NAMES order.
        for circuit in suite:
            named = feature_dict(circuit)
            vector = feature_vector(circuit)
            assert list(named) == list(FEATURE_NAMES)
            assert np.array_equal(vector, np.array([named[k] for k in FEATURE_NAMES]))

    def test_table_features_equal_standalone_functions(self, suite):
        # The single-sweep table must agree with the five per-feature walks
        # it replaced.
        for circuit in suite:
            named = feature_dict(circuit)
            assert named["program_communication"] == program_communication(circuit)
            assert named["critical_depth"] == critical_depth(circuit)
            assert named["entanglement_ratio"] == entanglement_ratio(circuit)
            assert named["parallelism"] == parallelism(circuit)
            assert named["liveness"] == liveness(circuit)

    def test_batch_builds_no_dag(self, suite, monkeypatch):
        # The table sweep derives critical depth without materialising the
        # DAG that the standalone ``critical_depth`` builds per call.
        built = []
        init = DAGCircuit.__init__

        def counted_init(dag, *args, **kwargs):
            built.append(dag)
            init(dag, *args, **kwargs)

        monkeypatch.setattr(DAGCircuit, "__init__", counted_init)
        feature_vectors_batch(suite)
        assert built == []
        critical_depth(suite[0])  # the legacy walk is seen by the counter
        assert len(built) == 1

    def test_empty_batch(self):
        assert feature_vectors_batch([]).shape == (0, len(FEATURE_NAMES))

    def test_empty_circuit(self):
        empty = QuantumCircuit(3, name="empty")
        assert np.array_equal(feature_vectors_batch([empty])[0], feature_vector(empty))


class TestAnalysisCacheWarmFeatures:
    def test_warm_features_preloads_the_fleet_cache(self):
        from repro.pipeline import AnalysisCache

        circuits = benchmark_suite(min_qubits=3, max_qubits=3, names=["ghz", "dj", "qft"])
        cache = AnalysisCache()
        assert cache.warm_features(circuits) == len(circuits)
        hits_before = cache.hits
        for circuit in circuits:
            assert np.array_equal(cache.feature_vector(circuit), feature_vector(circuit))
        assert cache.hits == hits_before + len(circuits)
        # A second warm-up finds everything cached.
        assert cache.warm_features(circuits) == 0


class TestRemoveRedundanciesIncremental:
    def _reference_fixed_point(self, circuit: QuantumCircuit) -> list:
        """The pre-worklist algorithm: iterate the full sweep to fixed point."""
        pass_ = RemoveRedundancies()
        instructions = [i for i in circuit if i.name != "id"]
        changed = True
        while changed:
            instructions, changed = pass_._single_pass(instructions)
        return instructions

    def _random_deep_circuit(self, rng: np.random.Generator, num_qubits: int, depth: int):
        circuit = QuantumCircuit(num_qubits, name="deep")
        for _ in range(depth):
            kind = rng.integers(0, 6)
            q = int(rng.integers(num_qubits))
            if kind == 0:
                circuit.append_instruction(Instruction(Gate(str(rng.choice(["h", "x", "s", "sdg", "id"]))), (q,)))
            elif kind == 1:
                angle = float(rng.choice([0.0, 0.3, -0.3, np.pi, 2 * np.pi]))
                circuit.append_instruction(Instruction(Gate(str(rng.choice(["rz", "rx", "ry"])), (angle,)), (q,)))
            elif kind == 2 and num_qubits > 1:
                r = int(rng.integers(num_qubits - 1))
                a, b = (r, r + 1) if rng.integers(2) else (r + 1, r)
                circuit.append_instruction(Instruction(Gate("cx"), (a, b)))
            elif kind == 3 and num_qubits > 1:
                r = int(rng.integers(num_qubits - 1))
                circuit.append_instruction(Instruction(Gate("rzz", (float(rng.uniform(-1, 1)),)), (r, r + 1)))
            elif kind == 4:
                circuit.barrier()
            else:
                circuit.append_instruction(Instruction(Gate("t"), (q,)))
        return circuit

    def _cascade_circuit(self, num_qubits: int, tower_depth: int, stable_depth: int):
        """A deep circuit whose rewrites cascade on one wire over many sweeps.

        Qubit 0 carries a palindrome tower: each sweep can only cancel the
        innermost adjacent pair, so the fixed point needs ``tower_depth``
        sweeps.  The other wires carry stable (non-cancelling) gates that a
        full resweep re-examines every sweep and the worklist skips after the
        first.
        """
        rng = np.random.default_rng(9)
        inverses = {"s": "sdg", "t": "tdg", "h": "h", "x": "x"}
        half = [str(rng.choice(list(inverses))) for _ in range(tower_depth)]
        tower = half + [inverses[name] for name in reversed(half)]
        circuit = QuantumCircuit(num_qubits, name="cascade")
        stable_cycle = ["h", "t", "s", "h", "tdg"]
        tower_iter = iter(tower)
        for layer in range(stable_depth):
            for q in range(1, num_qubits):
                circuit.append_instruction(
                    Instruction(Gate(stable_cycle[(layer + q) % len(stable_cycle)]), (q,))
                )
            gate_name = next(tower_iter, None)
            if gate_name is not None:
                circuit.append_instruction(Instruction(Gate(gate_name), (0,)))
        for gate_name in tower_iter:
            circuit.append_instruction(Instruction(Gate(gate_name), (0,)))
        return circuit

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_reference_fixed_point_on_random_circuits(self, seed):
        rng = np.random.default_rng(seed)
        circuit = self._random_deep_circuit(rng, num_qubits=4, depth=120)
        result = RemoveRedundancies().run(circuit, PassContext())
        reference = self._reference_fixed_point(circuit)
        got = [(i.name, i.params, i.qubits) for i in result]
        want = [(i.name, i.params, i.qubits) for i in reference]
        assert got == want

    def test_cascading_merges_need_multiple_sweeps(self):
        # rz(a) h h rz(b): sweep 1 cancels the h pair, sweep 2 merges the
        # rotations — the worklist restriction must still find the second merge.
        circuit = QuantumCircuit(1)
        circuit.rz(0.4, 0)
        circuit.h(0)
        circuit.h(0)
        circuit.rz(0.5, 0)
        result = RemoveRedundancies().run(circuit, PassContext())
        merged = (0.4 + 0.5 + np.pi) % (2 * np.pi) - np.pi
        assert [(i.name, i.params) for i in result] == [("rz", (merged,))]

    def test_worklist_attempts_fewer_rewrites_than_full_resweeps(self, monkeypatch):
        # A rewrite attempt is one ``_common_previous`` lookup.  The worklist
        # must save most of them when rewrites cascade on one wire, and must
        # never make more than the full resweeps on a few-sweep circuit.
        attempts = [0]
        common_previous = RemoveRedundancies._common_previous

        def counted(*args):
            attempts[0] += 1
            return common_previous(*args)

        monkeypatch.setattr(RemoveRedundancies, "_common_previous", staticmethod(counted))

        def count(fn, circuit) -> int:
            attempts[0] = 0
            fn(circuit)
            return attempts[0]

        def incremental(circuit):
            return RemoveRedundancies().run(circuit, PassContext())

        cascade = self._cascade_circuit(num_qubits=8, tower_depth=40, stable_depth=400)
        random_deep = self._random_deep_circuit(np.random.default_rng(5), num_qubits=6, depth=4000)
        assert count(incremental, cascade) <= count(self._reference_fixed_point, cascade) / 1.5
        assert count(incremental, random_deep) <= count(self._reference_fixed_point, random_deep)

    def test_benchmark_circuits_match_reference(self):
        for circuit in benchmark_suite(min_qubits=3, max_qubits=5, step=2,
                                       names=["ghz", "qft", "vqe", "wstate"]):
            result = RemoveRedundancies().run(circuit, PassContext())
            reference = self._reference_fixed_point(circuit)
            assert [(i.name, i.params, i.qubits, i.clbits) for i in result] == [
                (i.name, i.params, i.qubits, i.clbits) for i in reference
            ]


def _scalar_resynthesize_batch(runs, basis):
    """The pre-batch reference: resynthesise each run with the scalar path."""
    return [
        Optimize1qGatesDecomposition._resynthesize(run, qubit, basis) for run, qubit in runs
    ]


class TestOptimize1qGoldenGuard:
    """Fail fast (and specifically) if the batched 1q pass ever diverges."""

    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry", "u3"])
    def test_batch_pass_identical_to_scalar_pass(self, basis, monkeypatch):
        device = get_device("ibmq_washington")
        circuits = [
            benchmark_circuit("qft", 5),
            benchmark_circuit("vqe", 4),
            benchmark_circuit("su2random", 5),
        ]
        pass_ = Optimize1qGatesDecomposition(basis=basis)
        context = PassContext(device=device)
        batched = [pass_.run(c, context).fingerprint() for c in circuits]
        monkeypatch.setattr(
            Optimize1qGatesDecomposition,
            "_resynthesize_batch",
            classmethod(lambda cls, runs, b: _scalar_resynthesize_batch(runs, b)),
        )
        scalar = [pass_.run(c, context).fingerprint() for c in circuits]
        assert batched == scalar, (
            "batched Optimize1qGatesDecomposition diverged from the scalar "
            "reference — the golden preset traces will break"
        )

    @pytest.mark.parametrize("basis", ["rz_sx", "rz_rx", "rz_ry", "u3"])
    def test_pass_resynthesises_every_run_in_one_batch(self, monkeypatch, basis):
        device = get_device("ibmq_washington")
        circuits = [
            BasisTranslator().run(benchmark_circuit(name, 8), PassContext(device=device))
            for name in ("qft", "su2random", "qftentangled", "vqe")
        ]
        batch = Optimize1qGatesDecomposition._resynthesize_batch.__func__
        scalar = Optimize1qGatesDecomposition._resynthesize.__func__
        calls = {"batch": 0, "runs": 0, "scalar": 0}

        def counted_batch(cls, runs, basis):
            calls["batch"] += 1
            calls["runs"] += len(runs)
            return batch(cls, runs, basis)

        def counted_scalar(cls, run, qubit, basis):
            calls["scalar"] += 1
            return scalar(cls, run, qubit, basis)

        monkeypatch.setattr(
            Optimize1qGatesDecomposition, "_resynthesize_batch", classmethod(counted_batch)
        )
        monkeypatch.setattr(
            Optimize1qGatesDecomposition, "_resynthesize", classmethod(counted_scalar)
        )
        pass_ = Optimize1qGatesDecomposition(basis=basis)
        for circuit in circuits:
            pass_.run(circuit, PassContext())
        assert calls["batch"] == len(circuits)
        assert calls["runs"] > len(circuits)
        assert calls["scalar"] == 0

    def test_golden_cases_using_the_pass_still_match(self):
        cases = [
            case
            for case in json.loads(_GOLDEN_PATH.read_text())
            if "optimize_1q_gates" in case["trace"]
        ]
        assert cases, "no golden case exercises optimize_1q_gates"
        for case in cases:
            family, width = case["circuit"].rsplit("_", 1)
            circuit = benchmark_circuit(family, int(width))
            device = get_device(case["device"])
            manager = preset_pass_manager(
                case["style"], case["level"], iterate=case.get("iterate", False)
            )
            compiled, trace = run_preset_manager(manager, circuit, device, seed=case["seed"])
            assert trace == case["trace"]
            assert compiled.fingerprint() == case["fingerprint"], (
                f"golden fingerprint diverged for {case['style']}-o{case['level']} "
                f"{case['circuit']} on {case['device']} — check the 1q kernels"
            )

