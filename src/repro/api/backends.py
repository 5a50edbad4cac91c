"""Built-in compiler backends: preset pipelines, the RL model, and ``best-of``.

Importing this module registers the preset backends under ``qiskit-o0`` ...
``qiskit-o3`` and ``tket-o0`` ... ``tket-o2``, plus the ``best-of``
meta-backend.  The RL backend is per-model and therefore constructed
explicitly, either via ``predictor.as_backend()`` or directly::

    backend = PredictorBackend(predictor)          # name defaults to "rl"
    register_backend("rl", backend)
    repro.compile(circuit, backend="rl")
"""

from __future__ import annotations

import itertools
from time import perf_counter
from typing import TYPE_CHECKING

from ..compilers.presets import preset_pass_manager, run_preset_manager
from ..devices.library import get_device
from ..reward.functions import reward_function
from .registry import CompilerBackend, get_backend, list_backends, register_backend
from .result import CompilationResult, score_circuit

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from ..circuit.circuit import QuantumCircuit
    from ..core.predictor import Predictor
    from ..devices.device import Device

__all__ = [
    "DEFAULT_DEVICE",
    "BestOfBackend",
    "PredictorBackend",
    "PresetBackend",
]

#: device the preset backends target when the caller does not specify one
#: (the paper's baseline device)
DEFAULT_DEVICE = "ibmq_washington"


def _resolve_device(device: "Device | str | None") -> "Device":
    if device is None:
        return get_device(DEFAULT_DEVICE)
    if isinstance(device, str):
        return get_device(device)
    return device


class PresetBackend:
    """Backend running one declarative preset schedule at a fixed level.

    The backend is built directly from the schedule tables in
    :mod:`repro.compilers.presets` — it holds the corresponding
    :class:`~repro.pipeline.PassManager` and runs it, so the registered
    ``qiskit-o*`` / ``tket-o*`` backends and the ``qiskit_pipeline`` /
    ``tket_pipeline`` functions execute the exact same stages.  The manager
    carries no per-run state, making one backend instance safe to share
    across the batch service's worker threads.

    ``iterate=True`` builds the experimental fixed-point variant (registered
    as ``qiskit-o3-iter`` / ``tket-o2-iter``): the post-mapping optimization
    stage repeats until the circuit stops changing, trading wall time for
    whatever additional gate cancellations the extra rounds expose.  The
    golden-pinned base levels are untouched — these are new backend names.

    ``pass_overrides`` swaps stage slots of the schedule by registered pass
    name (see :func:`~repro.compilers.presets.preset_pass_manager`).  The
    backend name — and with it the cache token — gains a deterministic
    suffix describing the substitution, so overridden and base compilations
    never share a result-cache entry.
    """

    def __init__(
        self,
        style: str,
        optimization_level: int,
        *,
        iterate: bool = False,
        pass_overrides: dict | None = None,
    ):
        self.style = style
        self.optimization_level = optimization_level
        self.iterate = iterate
        self.pass_overrides = dict(pass_overrides) if pass_overrides else None
        self._manager = preset_pass_manager(
            style, optimization_level, iterate=iterate, overrides=self.pass_overrides
        )
        # the manager name is "<style>-o<level>[+stage=pass,...][-iter]" —
        # identical to the historical backend name when there are no overrides
        self.name = self._manager.name

    def with_pass_overrides(self, overrides: dict) -> "PresetBackend":
        """A derived backend with ``overrides`` layered onto this schedule.

        Validation (unknown stage, unknown pass, role mismatch) happens here,
        in the caller's thread, so a bad override fails fast instead of
        surfacing from a service worker.
        """
        merged = {**(self.pass_overrides or {}), **overrides}
        return PresetBackend(
            self.style,
            self.optimization_level,
            iterate=self.iterate,
            pass_overrides=merged,
        )

    def cache_token(self) -> str:
        return self.name

    @property
    def schedule(self) -> list[dict]:
        """The declarative stage schedule this backend runs (plain data)."""
        return self._manager.describe()

    def compile(
        self,
        circuit: "QuantumCircuit",
        *,
        device: "Device | str | None" = None,
        objective: str = "fidelity",
        seed: int = 0,
    ) -> CompilationResult:
        reward_function(objective)  # fail fast on unknown objectives
        target = _resolve_device(device)
        start = perf_counter()
        compiled, applied = run_preset_manager(self._manager, circuit, target, seed)
        wall_time = perf_counter() - start
        scores = score_circuit(compiled, target)
        return CompilationResult(
            circuit=compiled,
            device=target,
            reward=scores[objective],
            reward_name=objective,
            actions=applied,
            backend=self.name,
            scores=scores,
            wall_time=wall_time,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PresetBackend({self.name!r})"


#: monotonically increasing token so two wrappers around different predictors
#: never share a batch-cache entry
_PREDICTOR_TOKENS = itertools.count()


class PredictorBackend:
    """Backend wrapping a trained RL :class:`~repro.core.predictor.Predictor`.

    The RL agent selects its own target device as part of its action sequence
    (as in the paper), so the ``device`` argument is ignored; pin the device at
    training time via ``Predictor(device_name=...)`` instead.
    """

    def __init__(self, predictor: "Predictor", name: str = "rl"):
        if not callable(getattr(predictor, "compile", None)):
            raise TypeError("PredictorBackend expects a (trained) Predictor instance")
        self.predictor = predictor
        self.name = name
        self._token = f"{name}#{next(_PREDICTOR_TOKENS)}"

    def cache_token(self) -> str:
        return self._token

    def compile(
        self,
        circuit: "QuantumCircuit",
        *,
        device: "Device | str | None" = None,
        objective: str | None = None,
        seed: int = 0,
    ) -> CompilationResult:
        if objective:
            reward_function(objective)  # fail fast on unknown objectives
        result = self.predictor.compile(circuit)
        result.backend = self.name
        if objective and objective != result.reward_name:
            result = result.with_objective(objective)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PredictorBackend({self.name!r}, reward={self.predictor.reward_name!r})"


class BestOfBackend:
    """Meta-backend: run several candidate backends and keep the best result.

    ``candidates`` may mix registered backend names and backend instances.
    When omitted, the candidate set is the highest preset level of each style
    (``qiskit-o3``, ``tket-o2``) plus ``rl`` if a backend is registered under
    that name at compile time.  Candidate failures are captured rather than
    propagated; the per-candidate rewards land in ``result.metadata``.
    """

    def __init__(self, candidates: "list[str | CompilerBackend] | None" = None, name: str = "best-of"):
        self.candidates = list(candidates) if candidates is not None else None
        self.name = name

    def _resolve_candidates(self) -> list[CompilerBackend]:
        specs: list[str | CompilerBackend]
        if self.candidates is not None:
            specs = self.candidates
        else:
            specs = ["qiskit-o3", "tket-o2"]
            if "rl" in list_backends():
                specs.insert(0, "rl")
        return [get_backend(spec) if isinstance(spec, str) else spec for spec in specs]

    def cache_token(self) -> str:
        tokens = [
            getattr(b, "cache_token", lambda b=b: b.name)() for b in self._resolve_candidates()
        ]
        return f"{self.name}[{','.join(tokens)}]"

    def compile(
        self,
        circuit: "QuantumCircuit",
        *,
        device: "Device | str | None" = None,
        objective: str = "fidelity",
        seed: int = 0,
    ) -> CompilationResult:
        reward_function(objective)
        start = perf_counter()
        outcomes: dict[str, CompilationResult] = {}
        errors: dict[str, str] = {}
        for backend in self._resolve_candidates():
            try:
                outcome = backend.compile(circuit, device=device, objective=objective, seed=seed)
            except Exception as exc:  # noqa: BLE001 - candidate failure must not kill the sweep
                errors[backend.name] = f"{type(exc).__name__}: {exc}"
                continue
            if outcome.succeeded:
                outcomes[backend.name] = outcome
            else:
                errors[backend.name] = outcome.error or "compilation did not finish"
        wall_time = perf_counter() - start
        candidate_rewards = {name: r.reward for name, r in outcomes.items()}
        if not outcomes:
            return CompilationResult(
                circuit=circuit,
                device=None,
                reward=0.0,
                reward_name=objective,
                reached_done=False,
                backend=self.name,
                wall_time=wall_time,
                succeeded=False,
                error=f"all candidates failed: {errors}",
                metadata={"candidates": candidate_rewards, "candidate_errors": errors},
            )
        winner_name, winner = max(outcomes.items(), key=lambda item: item[1].reward)
        best = CompilationResult(
            circuit=winner.circuit,
            device=winner.device,
            reward=winner.reward,
            reward_name=winner.reward_name,
            actions=list(winner.actions),
            reached_done=winner.reached_done,
            backend=self.name,
            scores=dict(winner.scores),
            wall_time=wall_time,
            metadata={
                "winner": winner_name,
                "candidates": candidate_rewards,
                "candidate_errors": errors,
            },
        )
        return best

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BestOfBackend({self.name!r}, candidates={self.candidates})"


def _register_builtin_backends() -> None:
    for level in range(4):
        register_backend(f"qiskit-o{level}", PresetBackend("qiskit", level), overwrite=True)
    for level in range(3):
        register_backend(f"tket-o{level}", PresetBackend("tket", level), overwrite=True)
    # Experimental fixed-point variants of the highest level of each style:
    # same schedules, with the post-mapping optimization stage run to
    # quiescence by a RepeatUntilStable controller.
    register_backend("qiskit-o3-iter", PresetBackend("qiskit", 3, iterate=True), overwrite=True)
    register_backend("tket-o2-iter", PresetBackend("tket", 2, iterate=True), overwrite=True)
    register_backend("best-of", BestOfBackend(), overwrite=True)


_register_builtin_backends()
