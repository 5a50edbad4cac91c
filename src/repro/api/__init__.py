"""Unified compilation API: one facade, a pluggable backend registry, batching.

This package is the public surface of the framework's compiler redesign:

* :func:`repro.api.compile` — compile one circuit with any backend.
* :mod:`repro.api.registry` — the ``CompilerBackend`` protocol plus
  ``register_backend`` / ``list_backends`` / ``get_backend``.
* :mod:`repro.api.backends` — built-in backends: every Qiskit-style level
  (``qiskit-o0`` ... ``qiskit-o3``), every TKET-style level (``tket-o0`` ...
  ``tket-o2``), the RL ``PredictorBackend``, and the ``best-of`` meta-backend.
* :func:`repro.api.compile_batch` — batch compilation on a
  :class:`~repro.service.CompileService`, with per-(circuit, backend, device)
  caching and structured error capture.

Everything here is re-exported at the top level (``repro.compile`` etc.).
"""

from __future__ import annotations

from .backends import DEFAULT_DEVICE, BestOfBackend, PredictorBackend, PresetBackend
from .batch import (
    BatchResult,
    CompilationCache,
    circuit_fingerprint,
    compile_batch,
    default_cache,
)
from .facade import compile, resolve_backend
from .registry import (
    CompilerBackend,
    UnknownBackendError,
    get_backend,
    list_backends,
    register_backend,
    unregister_backend,
)
from .result import CompilationResult, score_circuit

__all__ = [
    "DEFAULT_DEVICE",
    "BatchResult",
    "BestOfBackend",
    "CompilationCache",
    "CompilationResult",
    "CompilerBackend",
    "PredictorBackend",
    "PresetBackend",
    "UnknownBackendError",
    "circuit_fingerprint",
    "compile",
    "compile_batch",
    "default_cache",
    "get_backend",
    "list_backends",
    "register_backend",
    "resolve_backend",
    "score_circuit",
    "unregister_backend",
]
