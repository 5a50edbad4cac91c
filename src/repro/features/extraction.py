"""Observation-feature extraction for the RL agent.

The observation vector is the seven features named in the paper: the number
of qubits, the circuit depth, and the five SupermarQ composite features.
All entries are normalised to [0, 1] so that they can be fed directly to the
policy network.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..circuit.circuit import QuantumCircuit
from ..obs import timed
from .supermarq import feature_table, features_from_table

__all__ = ["FEATURE_NAMES", "feature_vector", "feature_vectors_batch", "feature_dict"]

FEATURE_NAMES = (
    "num_qubits",
    "depth",
    "program_communication",
    "critical_depth",
    "entanglement_ratio",
    "parallelism",
    "liveness",
)

#: normalisation constants: qubit counts and depths are mapped through a
#: log-scale squash so that both small benchmark circuits and large mapped
#: circuits produce informative (non-saturated) values.
_MAX_QUBITS = 130.0
_DEPTH_SCALE = 10_000.0


def _squash_depth(depth: int) -> float:
    if depth <= 0:
        return 0.0
    return min(1.0, math.log1p(depth) / math.log1p(_DEPTH_SCALE))


def feature_dict(circuit: QuantumCircuit) -> dict[str, float]:
    """Named, normalised observation features of a circuit.

    One instruction-table sweep yields every ingredient — the old path
    re-walked the circuit once per feature (plus a DAG build) and allocated
    a ``{0}`` fallback set on every call just to express "at least one
    qubit".
    """
    table = feature_table(circuit)
    active = table["active_qubits"] or 1
    features = {
        "num_qubits": min(1.0, active / _MAX_QUBITS),
        "depth": _squash_depth(table["depth"]),
    }
    features.update(features_from_table(table))
    return features


def _vector_from_table(table: dict) -> np.ndarray:
    out = np.empty(len(FEATURE_NAMES), dtype=np.float64)
    active = table["active_qubits"] or 1
    out[0] = min(1.0, active / _MAX_QUBITS)
    out[1] = _squash_depth(table["depth"])
    supermarq = features_from_table(table)
    out[2] = supermarq["program_communication"]
    out[3] = supermarq["critical_depth"]
    out[4] = supermarq["entanglement_ratio"]
    out[5] = supermarq["parallelism"]
    out[6] = supermarq["liveness"]
    return out


def feature_vector(circuit: QuantumCircuit) -> np.ndarray:
    """Observation vector in the order of :data:`FEATURE_NAMES`.

    Direct array path: no dict round-trip, one sweep over the instruction
    table.  Values are identical to ``feature_dict`` read out in
    :data:`FEATURE_NAMES` order (pinned by a regression test).
    """
    with timed("kernel.feature_vector", items=1):
        return _vector_from_table(feature_table(circuit))


def feature_vectors_batch(circuits: Sequence[QuantumCircuit]) -> np.ndarray:
    """Observation vectors for many circuits as one ``(N, 7)`` array.

    Amortises the per-call overhead for vec-env fleets and service-side
    prediction: one timing record, one output allocation, row ``i`` equal
    to ``feature_vector(circuits[i])``.
    """
    out = np.empty((len(circuits), len(FEATURE_NAMES)), dtype=np.float64)
    with timed("kernel.feature_vectors_batch", items=len(circuits)):
        for i, circuit in enumerate(circuits):
            out[i] = _vector_from_table(feature_table(circuit))
    return out
