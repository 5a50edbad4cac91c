"""Linear-algebra utilities: unitaries, equivalence checks, and decompositions."""

from .decompositions import (
    OneQubitDecomposition,
    TwoQubitDecomposition,
    WeylDecomposition,
    cnot_count_required,
    decompose_2q,
    emit_2q,
    kron_factor,
    synthesize_1q,
    synthesize_2q,
    u3_angles,
    weyl_decompose,
    zyz_angles,
)
from .kernels import (
    allclose_up_to_global_phase_batch,
    gate_matrices_batch,
    run_products_batch,
    synthesize_1q_batch,
    u3_angles_batch,
)
from .unitaries import (
    allclose_up_to_global_phase,
    circuit_unitary,
    embed_unitary,
    global_phase_between,
    instruction_unitary,
    is_unitary_matrix,
)

__all__ = [
    "OneQubitDecomposition",
    "TwoQubitDecomposition",
    "WeylDecomposition",
    "cnot_count_required",
    "decompose_2q",
    "emit_2q",
    "kron_factor",
    "synthesize_1q",
    "synthesize_2q",
    "u3_angles",
    "weyl_decompose",
    "zyz_angles",
    "allclose_up_to_global_phase",
    "allclose_up_to_global_phase_batch",
    "gate_matrices_batch",
    "run_products_batch",
    "synthesize_1q_batch",
    "u3_angles_batch",
    "circuit_unitary",
    "embed_unitary",
    "global_phase_between",
    "instruction_unitary",
    "is_unitary_matrix",
]
