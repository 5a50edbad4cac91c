"""Reward functions for the compilation MDP.

Three reward functions mirror the paper's Section III-B / IV-A:

* **expected fidelity** — the product of per-gate and per-readout success
  probabilities given the device calibration; 1 means error-free execution.
* **critical depth** — ``1 - critical_depth`` where ``critical_depth`` is
  the SupermarQ feature (fraction of two-qubit gates on the longest path);
  higher is better (less sequential).
* **combination** — the mean of the two.

Rewards are only meaningful for *executable* circuits (native gates, valid
mapping); the environment therefore emits a sparse reward: 0 until the
"Done" state is reached, then the chosen metric of the final circuit.
"""

from __future__ import annotations

from ..circuit.circuit import QuantumCircuit
from ..devices.device import Device
from ..features.supermarq import critical_depth

__all__ = [
    "expected_fidelity",
    "critical_depth_reward",
    "combined_reward",
    "mean_reward",
    "reward_function",
    "REWARD_FUNCTIONS",
]


def expected_fidelity(circuit: QuantumCircuit, device: Device) -> float:
    """Estimate the probability that the circuit executes without error.

    Multiplies ``1 - error`` over every unitary gate (using the device's
    calibrated single-/two-qubit error rates) and ``1 - readout_error`` over
    every measured qubit.  Circuits without explicit measurements are treated
    as measuring every active qubit, which matches how the paper's benchmark
    circuits are evaluated.
    """
    calibration = device.calibration
    fidelity = 1.0
    measured: set[int] = set()
    has_measure = False
    for instr in circuit:
        if instr.name == "barrier":
            continue
        if instr.name == "measure":
            has_measure = True
            measured.add(instr.qubits[0])
            continue
        if instr.name == "reset" or not instr.gate.is_unitary:
            continue
        if instr.name == "id":
            continue
        fidelity *= 1.0 - calibration.gate_error(instr.qubits)
    if not has_measure:
        measured = set(circuit.active_qubits())
    for qubit in measured:
        fidelity *= 1.0 - calibration.measurement_error(qubit)
    return max(0.0, min(1.0, fidelity))


def critical_depth_reward(circuit: QuantumCircuit, device: Device | None = None) -> float:
    """``1 - critical_depth``: rewards circuits whose 2q gates are parallelised."""
    return max(0.0, min(1.0, 1.0 - critical_depth(circuit)))


def mean_reward(fidelity: float, depth_reward: float) -> float:
    """The combination reward from its two already computed parts."""
    return 0.5 * (fidelity + depth_reward)


def combined_reward(circuit: QuantumCircuit, device: Device) -> float:
    """Average of expected fidelity and the critical-depth reward."""
    return mean_reward(expected_fidelity(circuit, device), critical_depth_reward(circuit, device))


REWARD_FUNCTIONS = {
    "fidelity": expected_fidelity,
    "critical_depth": critical_depth_reward,
    "combination": combined_reward,
}


def reward_function(name: str):
    """Look up a reward function by name (``fidelity`` / ``critical_depth`` / ``combination``)."""
    if name not in REWARD_FUNCTIONS:
        raise KeyError(
            f"unknown reward {name!r}; available: {', '.join(sorted(REWARD_FUNCTIONS))}"
        )
    return REWARD_FUNCTIONS[name]
