"""Preset compilation pipelines (Qiskit-style and TKET-style flows).

The public entry point for these flows is the backend registry: every level is
registered as ``qiskit-o0`` ... ``qiskit-o3`` / ``tket-o0`` ... ``tket-o2``
and reachable through ``repro.compile(circuit, backend=...)``.  The level
tables themselves are pure-data :class:`~repro.compilers.presets.StageSpec`
schedules resolved through the pass registry, so any stage slot can be
swapped by name via ``preset_pass_manager(..., overrides=...)`` or the
facade's ``pass_overrides=``.
"""

from .presets import (
    QISKIT_LEVELS,
    TKET_LEVELS,
    StageSpec,
    apply_stage_overrides,
    iterate_stage,
    preset_pass_manager,
    qiskit_pipeline,
    run_preset_manager,
    tket_pipeline,
)

__all__ = [
    "QISKIT_LEVELS",
    "TKET_LEVELS",
    "StageSpec",
    "apply_stage_overrides",
    "iterate_stage",
    "preset_pass_manager",
    "qiskit_pipeline",
    "run_preset_manager",
    "tket_pipeline",
]
