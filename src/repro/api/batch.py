"""Batch compilation: every (circuit, backend) pair of a sweep, with caching.

``compile_batch`` is a thin client of :class:`~repro.service.CompileService`:
it resolves and deduplicates the backend specs, submits one request per
(circuit, backend) pair, and collects the futures into a
:class:`BatchResult`.  The service supplies everything else:

* **Per-(circuit, backend, device, seed) result caching** — preset pipelines
  are deterministic, so re-running a sweep (e.g. the same benchmark suite
  scored under a different objective) reuses the compiled circuits.  Cached
  results carry ``metadata["cached"] = True`` and are re-pointed at the
  requested objective without recompiling.  Duplicate pairs inside one
  sweep coalesce onto one compilation and are marked the same way.
* **Structured error capture** — one failing circuit does not kill the sweep;
  the failure is returned as a ``CompilationResult`` with ``succeeded=False``
  and the exception text in ``error``.  Failures are never cached, and a
  duplicate whose owner failed gets its own attempt.
* **Fan-out** — per-backend worker lanes.  By default a short-lived service
  with thread lanes is started for the sweep and drained afterwards.  Pass
  ``service=CompileService(process_backends=(...))`` to compile those
  backends GIL-free in worker processes, or a long-lived service to join its
  lanes and its shared (possibly server-backed) cache.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..circuit.circuit import QuantumCircuit
from ..devices.device import Device
from ..devices.library import get_device
from ..pipeline.properties import LruCache
from ..reward.functions import reward_function
from .facade import resolve_backend
from .registry import CompilerBackend
from .result import CompilationResult

__all__ = [
    "BatchResult",
    "CompilationCache",
    "circuit_fingerprint",
    "compile_batch",
    "default_cache",
    "result_cache_key",
]


def circuit_fingerprint(circuit: QuantumCircuit) -> str:
    """Stable content hash of a circuit (gate sequence, qubits, parameters).

    Built on the cached :meth:`QuantumCircuit.fingerprint`, with the circuit
    name mixed in: batch sweeps treat same-structure circuits from different
    benchmark families as distinct entries, while the structural digest itself
    is shared with the analysis cache and computed at most once per circuit.
    """
    return f"{circuit.name}|{circuit.fingerprint()}"


class CompilationCache(LruCache):
    """Thread-safe LRU cache of compilation results.

    Keys are ``(circuit fingerprint, backend cache token, device, seed)`` —
    deliberately *not* the objective, because compilation is objective-agnostic
    for deterministic backends and results carry scores for every metric.
    """


def result_cache_key(
    circuit: QuantumCircuit,
    backend: CompilerBackend,
    device_name: str | None,
    seed: int,
) -> tuple:
    """The :class:`CompilationCache` key for one (circuit, backend) task.

    The single definition of the key scheme: every service sharing one
    server-backed cache reuses the others' results only while their key
    tuples stay byte-identical.
    """
    token = getattr(backend, "cache_token", backend.name)
    return (
        circuit_fingerprint(circuit),
        token() if callable(token) else token,
        device_name if device_name is not None else "<auto>",
        seed,
    )


_DEFAULT_CACHE = CompilationCache()


def default_cache() -> CompilationCache:
    """The process-wide cache used by :func:`compile_batch` by default."""
    return _DEFAULT_CACHE


@dataclass
class BatchResult:
    """All results of one ``compile_batch`` sweep, circuit-major order."""

    results: list[CompilationResult] = field(default_factory=list)
    #: (circuit index, backend name) -> position in ``results``
    index: dict[tuple[int, str], int] = field(default_factory=dict)

    def __iter__(self):
        return iter(self.results)

    def __len__(self) -> int:
        return len(self.results)

    @property
    def succeeded(self) -> list[CompilationResult]:
        return [r for r in self.results if r.succeeded]

    @property
    def failures(self) -> list[CompilationResult]:
        return [r for r in self.results if not r.succeeded]

    def get(self, circuit_index: int, backend: str) -> CompilationResult:
        """The result for one (circuit, backend) combination of the sweep."""
        return self.results[self.index[(circuit_index, backend)]]

    def by_backend(self, backend: str) -> list[CompilationResult]:
        """All results produced by ``backend``, in circuit order."""
        return [r for r in self.results if r.backend == backend]

    def summary(self) -> str:
        lines = [f"batch: {len(self.results)} compilations, {len(self.failures)} failed"]
        for result in self.results:
            lines.append("  " + result.summary())
        return "\n".join(lines)


def _same_backend(a: CompilerBackend, b: CompilerBackend) -> bool:
    """True when two resolved backends are the same compiler.

    Predictor specs are wrapped in a *fresh* ``PredictorBackend`` per
    :func:`resolve_backend` call, so object identity alone would treat the
    same Predictor passed twice as a conflict; compare the wrapped predictor
    instead.
    """
    if a is b:
        return True
    predictor = getattr(a, "predictor", None)
    return predictor is not None and predictor is getattr(b, "predictor", None)


def _resolve_unique_backends(
    specs: Sequence,
) -> tuple[list[CompilerBackend], dict[str, str]]:
    """Resolve specs to backends, deduplicating repeats and alias collisions.

    Returns the unique backends in first-appearance order plus a mapping of
    alias spec strings to canonical backend names (for index lookups).  Two
    specs resolving to the *same* backend (``"qiskit"`` and ``"qiskit-o3"``,
    the same instance twice, or the same Predictor twice) collapse into one
    entry; two *different* backends claiming one name would silently
    overwrite each other's results in :attr:`BatchResult.index`, so that is
    an error.
    """
    unique: dict[str, CompilerBackend] = {}
    aliases: dict[str, str] = {}
    ordered: list[CompilerBackend] = []
    for spec in specs:
        backend = resolve_backend(spec)
        existing = unique.get(backend.name)
        if existing is None:
            unique[backend.name] = backend
            ordered.append(backend)
        elif not _same_backend(existing, backend):
            raise ValueError(
                f"conflicting backend specs: {spec!r} resolves to name "
                f"{backend.name!r}, which a different backend in this batch "
                "already uses — results would overwrite each other.  Give "
                "each backend a distinct name (for Predictors: "
                'predictor.as_backend(name="...")).'
            )
        if isinstance(spec, str) and spec != backend.name:
            aliases[spec] = backend.name
    return ordered, aliases


def compile_batch(
    circuits: Iterable[QuantumCircuit],
    backends: "Sequence[str | CompilerBackend]" = ("qiskit-o3",),
    *,
    device: "Device | str | None" = None,
    objective: str = "fidelity",
    seed: int = 0,
    max_workers: int | None = None,
    cache: CompilationCache | None = _DEFAULT_CACHE,
    service=None,
    priority: int = 0,
    deadline: float | None = None,
) -> BatchResult:
    """Compile every circuit with every backend, with caching and error capture.

    Parameters
    ----------
    circuits:
        Circuits to sweep over.
    backends:
        Backend specifications (registered names, backend instances, or
        trained Predictors) — every circuit is compiled with each of them.
        Duplicate specs and aliases resolving to the same backend are
        deduplicated; two *different* backends sharing one name raise.
    device, objective, seed:
        Forwarded to each backend as in :func:`repro.compile`.
    max_workers:
        Total workers of the short-lived service (default: CPU count, capped
        at the circuit count), split evenly across the backend lanes with at
        least one per lane — so a sweep of several backends never runs
        serially.  Ignored when ``service`` is given.
    cache:
        A :class:`CompilationCache` (default: the process-wide cache) or
        ``None`` to disable caching across sweeps.  Failed compilations are
        never cached.  Ignored when ``service`` is given.
    service:
        A :class:`~repro.service.CompileService` (or
        :class:`~repro.service.ServiceClient`) to run the sweep on; its cache
        and lanes are then the only ones used.  When omitted, a short-lived
        service backed by ``cache`` is started for the sweep and drained
        afterwards.
    priority, deadline:
        QoS fields forwarded to every submission (higher priority runs
        first; a request that waits past ``deadline`` seconds resolves to a
        ``DeadlineExceeded`` failure result).

    Returns a :class:`BatchResult` in circuit-major order: for circuits
    ``[c0, c1]`` and backends ``[a, b]`` the results are
    ``[c0/a, c0/b, c1/a, c1/b]``.
    """
    circuit_list = list(circuits)
    specs = list(backends)
    if not specs:
        raise ValueError("compile_batch needs at least one backend")
    resolved, aliases = _resolve_unique_backends(specs)
    reward_function(objective)  # fail fast regardless of cache warmth
    target = get_device(device) if isinstance(device, str) else device
    tasks = [
        (ci, circuit, backend)
        for ci, circuit in enumerate(circuit_list)
        for backend in resolved
    ]

    owned = None
    if service is None:
        from ..service import CompileService

        workers = max_workers or max(1, min(len(circuit_list), os.cpu_count() or 1))
        # Split the workers across the backend lanes, at least one each.
        workers = max(1, -(-workers // len(resolved)))
        owned = service = CompileService(
            store=cache.store if cache is not None else None,
            max_workers=workers,
            min_workers=workers,
        )
    try:
        futures = [
            service.submit(
                circuit,
                backend,
                device=target,
                objective=objective,
                seed=seed,
                priority=priority,
                deadline=deadline,
            )
            for _ci, circuit, backend in tasks
        ]
        results = [future.result() for future in futures]
    finally:
        if owned is not None:
            owned.shutdown(drain=True)

    batch = BatchResult()
    aliases_by_name: dict[str, list[str]] = {}
    for spec, name in aliases.items():
        aliases_by_name.setdefault(name, []).append(spec)
    for position, ((ci, _circuit, backend), result) in enumerate(zip(tasks, results)):
        batch.results.append(result)
        batch.index[(ci, backend.name)] = position
        # Also index by every alias the caller used ("qiskit" for
        # "qiskit-o3"), so lookups resolve like get_backend() does.
        for alias in aliases_by_name.get(backend.name, ()):
            batch.index[(ci, alias)] = position
    return batch
