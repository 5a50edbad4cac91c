"""Numeric-kernel benchmark: batched hot paths vs the scalar loops they replaced.

Measures the three loops the kernel layer vectorises and writes before/after
series to ``benchmarks/results/BENCH_kernels.json`` (with
``REPRO_BENCH_WRITE=1``):

* **1q resynthesis** — ``Optimize1qGatesDecomposition`` with the batched
  ``(N, 2, 2)`` kernels vs the per-run scalar ``_resynthesize`` reference,
  in gates/sec over native-gate benchmark circuits.  Outputs are asserted
  identical (the golden traces depend on it).
* **feature extraction** — ``feature_vectors_batch`` (one instruction-table
  sweep per circuit) vs the legacy path (five per-feature circuit walks plus
  a DAG build), in circuits/sec over the benchmark suite.  Values are
  asserted equal.
* **redundancy removal** — the incremental-worklist ``RemoveRedundancies``
  vs the fixed point of the full-resweep reference on deep circuits.
* **SABRE routing** — wall time per circuit width with the vectorised swap
  scorer (series only; the scalar scorer is gone).

``REPRO_BENCH_SMOKE=1`` shrinks everything to one repetition (used by CI to
keep the artifact fresh without burning minutes); throughput-ratio
assertions only run unsmoked.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np

from repro.bench import benchmark_circuit, benchmark_suite
from repro.circuit import QuantumCircuit
from repro.circuit.gates import Gate, Instruction
from repro.devices import get_device
from repro.features import feature_vectors_batch
from repro.features.supermarq import (
    critical_depth,
    entanglement_ratio,
    liveness,
    parallelism,
    program_communication,
)
from repro.passes import (
    BasisTranslator,
    Optimize1qGatesDecomposition,
    PassContext,
    RemoveRedundancies,
    SabreLayout,
    SabreSwap,
)

from conftest import report, write_results

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
TIMING_ROUNDS = 1 if SMOKE else 3


def _write_results(section: str, payload: dict) -> None:
    write_results(
        "BENCH_kernels.json", {section: payload}, {"smoke": SMOKE, "timing_rounds": TIMING_ROUNDS}
    )


def _best_rate(fn, items: int) -> tuple[float, float]:
    """(best items/sec, best seconds) of ``fn`` over TIMING_ROUNDS runs."""
    best = math.inf
    for _round in range(TIMING_ROUNDS):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return items / best, best


# ---------------------------------------------------------------------------
# 1q resynthesis: batched kernels vs the scalar per-run reference
# ---------------------------------------------------------------------------


def _scalar_resynthesize_batch(runs, basis):
    """The pre-kernel loop: one scalar ``_resynthesize`` call per run."""
    return [
        Optimize1qGatesDecomposition._resynthesize(run, qubit, basis)
        for run, qubit in runs
    ]


def _native_1q_heavy_circuits() -> list[QuantumCircuit]:
    device = get_device("ibmq_washington")
    width = 5 if SMOKE else 8
    translator = BasisTranslator()
    context = PassContext(device=device)
    return [
        translator.run(benchmark_circuit(name, width), context)
        for name in (["qft"] if SMOKE else ["qft", "su2random", "qftentangled", "vqe"])
    ]


def _collect_1q_runs(circuits) -> list[tuple[list[Instruction], int]]:
    """The runs the pass would resynthesise, captured through its own sweep."""
    captured: list[tuple[list[Instruction], int]] = []
    original = Optimize1qGatesDecomposition._resynthesize_batch

    def capture(cls, runs, basis):
        captured.extend(runs)
        return original.__func__(cls, runs, basis)

    Optimize1qGatesDecomposition._resynthesize_batch = classmethod(capture)
    try:
        pass_ = Optimize1qGatesDecomposition(basis="rz_sx")
        for circuit in circuits:
            pass_.run(circuit, PassContext())
    finally:
        Optimize1qGatesDecomposition._resynthesize_batch = original
    return captured


def test_1q_resynthesis_throughput():
    circuits = _native_1q_heavy_circuits()
    runs = _collect_1q_runs(circuits)
    total_gates = sum(len(run) for run, _qubit in runs)
    basis = "rz_sx"

    batched = Optimize1qGatesDecomposition._resynthesize_batch(runs, basis)
    batched_rate, batched_secs = _best_rate(
        lambda: Optimize1qGatesDecomposition._resynthesize_batch(runs, basis), total_gates
    )
    scalar = _scalar_resynthesize_batch(runs, basis)
    scalar_rate, scalar_secs = _best_rate(
        lambda: _scalar_resynthesize_batch(runs, basis), total_gates
    )

    # The speedup must never come at the cost of the pinned semantics.
    assert [
        [(i.name, i.params, i.qubits) for i in replacement] for replacement in batched
    ] == [[(i.name, i.params, i.qubits) for i in replacement] for replacement in scalar]

    ratio = batched_rate / scalar_rate
    payload = {
        "runs": len(runs),
        "gates": total_gates,
        "before_gates_per_sec": round(scalar_rate, 1),
        "after_gates_per_sec": round(batched_rate, 1),
        "before_seconds": round(scalar_secs, 4),
        "after_seconds": round(batched_secs, 4),
        "speedup_ratio": round(ratio, 2),
    }
    _write_results("resynthesis_1q", payload)
    report(
        f"\n1q resynthesis ({len(runs)} runs, {total_gates} gates): batched "
        f"{batched_rate:.0f} gates/s vs scalar {scalar_rate:.0f} gates/s (x{ratio:.1f})"
    )
    if not SMOKE:
        assert ratio >= 3.0, f"batched 1q resynthesis only x{ratio:.2f} over the scalar loop"


# ---------------------------------------------------------------------------
# Feature extraction: single-sweep table vs the legacy per-feature walks
# ---------------------------------------------------------------------------


def _legacy_feature_vector(circuit: QuantumCircuit) -> np.ndarray:
    """The pre-kernel observation path: one circuit walk per feature.

    Replicates the old ``feature_dict`` readout exactly — ``{0}`` fallback
    allocation, ``circuit.depth()``, and the five standalone SupermarQ
    functions (``critical_depth`` builds a DAG per call).
    """
    num_active = len(circuit.active_qubits() or {0})
    depth = circuit.depth()
    return np.array(
        [
            min(1.0, num_active / 130.0),
            0.0 if depth <= 0 else min(1.0, math.log1p(depth) / math.log1p(10_000.0)),
            program_communication(circuit),
            critical_depth(circuit),
            entanglement_ratio(circuit),
            parallelism(circuit),
            liveness(circuit),
        ]
    )


def test_feature_extraction_throughput():
    suite = benchmark_suite(2, 4 if SMOKE else 8, step=2)

    batch = feature_vectors_batch(suite)
    batched_rate, batched_secs = _best_rate(
        lambda: feature_vectors_batch(suite), len(suite)
    )

    legacy = np.stack([_legacy_feature_vector(c) for c in suite])
    legacy_rate, legacy_secs = _best_rate(
        lambda: [_legacy_feature_vector(c) for c in suite], len(suite)
    )

    assert np.array_equal(batch, legacy)

    ratio = batched_rate / legacy_rate
    payload = {
        "circuits": len(suite),
        "before_circuits_per_sec": round(legacy_rate, 1),
        "after_circuits_per_sec": round(batched_rate, 1),
        "before_seconds": round(legacy_secs, 4),
        "after_seconds": round(batched_secs, 4),
        "speedup_ratio": round(ratio, 2),
    }
    _write_results("feature_extraction", payload)
    report(
        f"feature extraction: batched {batched_rate:.0f} circuits/s vs "
        f"legacy {legacy_rate:.0f} circuits/s (x{ratio:.1f})"
    )
    if not SMOKE:
        assert ratio >= 2.0, f"batched feature extraction only x{ratio:.2f} over the legacy walks"


# ---------------------------------------------------------------------------
# RemoveRedundancies: incremental worklist vs full-resweep fixed point
# ---------------------------------------------------------------------------


def _deep_redundant_circuit(num_qubits: int, depth: int, seed: int) -> QuantumCircuit:
    rng = np.random.default_rng(seed)
    circuit = QuantumCircuit(num_qubits, name="deep")
    for _ in range(depth):
        kind = int(rng.integers(0, 5))
        q = int(rng.integers(num_qubits))
        if kind == 0:
            circuit.append_instruction(
                Instruction(Gate(str(rng.choice(["h", "x", "s", "sdg", "t"]))), (q,))
            )
        elif kind == 1:
            angle = float(rng.choice([0.0, 0.25, -0.25, np.pi]))
            circuit.append_instruction(
                Instruction(Gate(str(rng.choice(["rz", "rx", "ry"])), (angle,)), (q,))
            )
        elif kind == 2 and num_qubits > 1:
            r = int(rng.integers(num_qubits - 1))
            circuit.append_instruction(Instruction(Gate("cx"), (r, r + 1)))
        else:
            circuit.append_instruction(
                Instruction(Gate("rz", (float(rng.uniform(-1, 1)),)), (q,))
            )
    return circuit


def _reference_fixed_point(pass_: RemoveRedundancies, circuit: QuantumCircuit):
    instructions = [i for i in circuit if i.name != "id"]
    changed = True
    while changed:
        instructions, changed = pass_._single_pass(instructions)
    return instructions


def _cascade_circuit(num_qubits: int, tower_depth: int, stable_depth: int) -> QuantumCircuit:
    """A deep circuit whose rewrites cascade on one wire over many sweeps.

    Qubit 0 carries a palindrome tower — each sweep can only cancel the
    innermost adjacent pair, so the fixed point needs ``tower_depth`` sweeps.
    The other wires carry stable (non-cancelling) gates that a full resweep
    re-examines every sweep and the worklist skips after the first.
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


def test_remove_redundancies_incremental():
    cascade = _cascade_circuit(
        num_qubits=8, tower_depth=10 if SMOKE else 40, stable_depth=60 if SMOKE else 400
    )
    random_deep = _deep_redundant_circuit(num_qubits=6, depth=400 if SMOKE else 4000, seed=5)
    pass_ = RemoveRedundancies()
    context = PassContext()

    payload = {}
    for label, circuit in (("cascade", cascade), ("random_deep", random_deep)):
        incremental = pass_.run(circuit, context)
        incremental_rate, incremental_secs = _best_rate(
            lambda: pass_.run(circuit, context), len(circuit)
        )
        reference = _reference_fixed_point(pass_, circuit)
        reference_rate, reference_secs = _best_rate(
            lambda: _reference_fixed_point(pass_, circuit), len(circuit)
        )
        assert [(i.name, i.params, i.qubits) for i in incremental] == [
            (i.name, i.params, i.qubits) for i in reference
        ]
        ratio = incremental_rate / reference_rate
        payload[label] = {
            "input_gates": len(circuit),
            "output_gates": len(incremental),
            "before_gates_per_sec": round(reference_rate, 1),
            "after_gates_per_sec": round(incremental_rate, 1),
            "before_seconds": round(reference_secs, 4),
            "after_seconds": round(incremental_secs, 4),
            "speedup_ratio": round(ratio, 2),
        }
        report(
            f"remove_redundancies [{label}]: incremental {incremental_rate:.0f} gates/s "
            f"vs resweep {reference_rate:.0f} gates/s (x{ratio:.1f})"
        )
    _write_results("remove_redundancies", payload)
    if not SMOKE:
        # Cascading rewrites are where the worklist pays for itself; on
        # few-sweep random circuits it must at least not be a regression.
        assert payload["cascade"]["speedup_ratio"] >= 1.5
        assert payload["random_deep"]["speedup_ratio"] >= 0.8


# ---------------------------------------------------------------------------
# SABRE routing wall time vs circuit width (vectorised swap scorer)
# ---------------------------------------------------------------------------


def test_sabre_routing_wall_time_by_width():
    device = get_device("ibmq_washington")
    widths = [4] if SMOKE else [4, 6, 8, 10]
    series = {}
    for width in widths:
        circuit = benchmark_circuit("qftentangled", width)
        native = BasisTranslator().run(circuit, PassContext(device=device))

        def route():
            context = PassContext(device=device, seed=1)
            placed = SabreLayout(seed=1).run(native, context)
            return SabreSwap(seed=1).run(placed, context)

        routed = route()
        assert device.mapping_satisfied(routed)
        _rate, secs = _best_rate(route, 1)
        series[str(width)] = round(secs, 4)
    _write_results("sabre_routing_seconds_by_width", series)
    report(f"sabre routing wall time by width: {series}")
