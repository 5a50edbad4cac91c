"""Preset compilation pipelines in the style of Qiskit and TKET.

These pipelines are the comparison points of the paper's evaluation: every
benchmark circuit is also compiled with "Qiskit at its highest optimization
level (O3)" and "TKET at its highest optimization level (O2)".  They are
assembled from the same pass implementations that the RL agent can choose
from, with pass selections that follow the published structure of the two
SDKs' preset pipelines.

Since the pass-registry refactor the levels are *pure data*:
:data:`QISKIT_LEVELS` and :data:`TKET_LEVELS` map each optimization level to
a tuple of :class:`StageSpec`\\ s — stage names, pass *names* and constructor
kwargs, nothing instantiated — and :func:`preset_pass_manager` resolves the
specs through the pass registry (:mod:`repro.passes.registry`) into a ready
:class:`~repro.pipeline.PassManager`.  Because stage slots are names, any
slot can be swapped for any registered pass of the matching role::

    manager = preset_pass_manager("qiskit", 3, overrides={"routing": "tket-routing"})

Both the pipeline functions here and the registered API backends
(:mod:`repro.api.backends`) execute these same schedules — there is exactly
one definition of what "qiskit-o3" means, and the golden-trace suite pins it.

The public entry point for end users is the unified facade:
``repro.compile(circuit, backend="qiskit-o3", device=...)`` (every level is
registered as ``qiskit-o0`` ... ``qiskit-o3`` and ``tket-o0`` ... ``tket-o2``),
with ``pass_overrides=`` riding through the facade, the compile service, and
the HTTP gateway down to :func:`preset_pass_manager`'s ``overrides``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..circuit.circuit import QuantumCircuit
from ..devices.device import Device
from ..passes import PassRole, available_passes, pass_role, resolve_pass
from ..passes.base import PassContext
from ..pipeline import AnalysisCache, PassManager, RepeatUntilStable, Stage

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


def _needs_rebase(circuit: QuantumCircuit, context: PassContext) -> bool:
    """Finalisation condition: the circuit still contains non-native gates."""
    return not context.require_device().gates_native(circuit)


#: stage conditions as data — specs name their condition so the level tables
#: stay serialisable
_CONDITIONS = {"needs_rebase": _needs_rebase}


@dataclass(frozen=True)
class StageSpec:
    """One stage of a preset schedule, as pure data.

    ``passes`` holds registry *specs* — a pass name or a ``(name, kwargs)``
    pair — resolved through :func:`repro.passes.resolve_pass` when the
    schedule is built.  ``role`` declares which
    :class:`~repro.passes.PassRole` may fill this slot; overrides are
    validated against it (``None`` = unconstrained, used by the mixed-role
    finalisation stage).
    """

    name: str
    passes: tuple = ()
    role: str | None = None
    condition: str | None = None
    record_trace: bool = True

    def build(self) -> Stage:
        """Resolve the named passes into a runnable :class:`Stage`."""
        return Stage(
            self.name,
            tuple(resolve_pass(spec) for spec in self.passes),
            condition=_CONDITIONS[self.condition] if self.condition else None,
            record_trace=self.record_trace,
        )


#: the shared clean-up stage: re-synthesise and tidy up only when a
#: post-mapping optimization re-introduced non-native gates.  Not part of the
#: advertised pass trace (it is a safety net, not a scheduled pass), and not
#: role-constrained: it mixes synthesis and optimization passes.
_FINALISE_SPEC = StageSpec(
    "finalise",
    ("basis_translator", "optimize_1q_gates"),
    condition="needs_rebase",
    record_trace=False,
)


def _qiskit_stage_specs(level: int) -> tuple[StageSpec, ...]:
    """The Qiskit-style schedule for one optimization level, as data.

    Stochastic passes carry no seed in their spec: they draw it from the
    ``PassContext`` at run time, which keeps one schedule valid for every
    compilation seed.
    """
    pre: list = []
    if level >= 1:
        pre += [("optimize_1q_gates", {"basis": "u3"}), "inverse_cancellation"]
    if level >= 2:
        pre += ["commutative_cancellation"]
    if level >= 3:
        pre += ["consolidate_blocks", ("optimize_1q_gates", {"basis": "u3"})]

    layout = {0: "trivial_layout", 1: "dense_layout"}.get(level, "sabre_layout")
    routing = {0: "basic_swap", 1: "stochastic_swap"}.get(level, "sabre_swap")

    post: list = []
    if level >= 1:
        post += ["optimize_1q_gates", "cx_cancellation"]
    if level >= 2:
        post += ["commutative_cancellation"]
    if level >= 3:
        post += [
            "consolidate_blocks",
            "basis_translator",
            "optimize_1q_gates",
            "remove_diagonal_before_measure",
        ]

    return (
        StageSpec("pre_optimization", tuple(pre), role=PassRole.OPTIMIZATION),
        StageSpec("synthesis", ("basis_translator",), role=PassRole.SYNTHESIS),
        StageSpec("layout", (layout,), role=PassRole.LAYOUT),
        StageSpec("routing", (routing,), role=PassRole.ROUTING),
        StageSpec("post_optimization", tuple(post), role=PassRole.OPTIMIZATION),
        _FINALISE_SPEC,
    )


def _tket_stage_specs(level: int) -> tuple[StageSpec, ...]:
    """The TKET-style schedule for one optimization level, as data.

    Placement and routing are separate stage slots (the recorded pass trace
    is unaffected — traces name passes, not stages) so ``overrides`` can
    target ``"routing"`` uniformly across both preset styles.
    """
    pre: list = []
    if level == 1:
        pre = [
            "remove_redundancies",
            ("optimize_1q_gates", {"basis": "u3"}),
            "clifford_simp",
        ]
    elif level >= 2:
        pre = ["full_peephole_optimise"]

    placement = "trivial_layout" if level == 0 else "dense_layout"

    post: list = []
    if level >= 1:
        post += ["optimize_1q_gates", "remove_redundancies"]
    if level >= 2:
        post += [
            "clifford_simp",
            "basis_translator",
            "optimize_1q_gates",
            "remove_redundancies",
        ]

    return (
        StageSpec("pre_optimization", tuple(pre), role=PassRole.OPTIMIZATION),
        StageSpec("rebase", ("basis_translator",), role=PassRole.SYNTHESIS),
        StageSpec("placement", (placement,), role=PassRole.LAYOUT),
        StageSpec("routing", ("tket_routing",), role=PassRole.ROUTING),
        StageSpec("post_routing", tuple(post), role=PassRole.OPTIMIZATION),
        _FINALISE_SPEC,
    )


#: level → pure-data stage schedule for each preset style
QISKIT_LEVELS: dict[int, tuple[StageSpec, ...]] = {
    level: _qiskit_stage_specs(level) for level in range(4)
}
TKET_LEVELS: dict[int, tuple[StageSpec, ...]] = {
    level: _tket_stage_specs(level) for level in range(3)
}

_LEVEL_TABLES = {"qiskit": QISKIT_LEVELS, "tket": TKET_LEVELS}

#: the post-mapping optimization stage of each style — the stage the
#: experimental ``-iter`` backends run to a fixed point
_POST_STAGE = {"qiskit": "post_optimization", "tket": "post_routing"}


def _normalise_override(value) -> tuple:
    """One override value → a tuple of pass specs (single spec or a list)."""
    if isinstance(value, str):
        return (value,)
    if (
        isinstance(value, (tuple, list))
        and len(value) == 2
        and isinstance(value[0], str)
        and isinstance(value[1], dict)
    ):
        return (tuple(value),)
    if isinstance(value, (tuple, list)):
        return tuple(
            tuple(item) if isinstance(item, (tuple, list)) else item for item in value
        )
    raise TypeError(
        f"invalid override {value!r}: expected a pass name, a (name, kwargs) "
        "pair, or a list of those"
    )


def _spec_label(spec) -> str:
    """Deterministic short label for one pass spec (cache-token material)."""
    if isinstance(spec, str):
        return spec.replace("-", "_")
    name, kwargs = spec
    if not kwargs:
        return name.replace("-", "_")
    args = ",".join(f"{k}={kwargs[k]}" for k in sorted(kwargs))
    return f"{name.replace('-', '_')}{{{args}}}"


def override_suffix(overrides: dict) -> str:
    """The deterministic name suffix for an overridden schedule.

    Appended to the manager (and derived backend) name, which flows into the
    result-cache token — overridden and base compilations can never collide
    in the shared caches.
    """
    parts = [
        f"{stage}={'+'.join(_spec_label(s) for s in _normalise_override(value))}"
        for stage, value in sorted(overrides.items())
    ]
    return "+" + ",".join(parts)


def apply_stage_overrides(
    specs: tuple[StageSpec, ...],
    overrides: dict,
) -> tuple[StageSpec, ...]:
    """Swap stage slots by name, validating roles against the pass registry.

    ``overrides`` maps a stage name to a pass spec (name, ``(name, kwargs)``
    pair) or a list of specs replacing the stage's pass list.  Unknown stage
    names, unknown pass names, and role mismatches raise with the legal
    choices listed.
    """
    stage_names = [spec.name for spec in specs]
    unknown = sorted(set(overrides) - set(stage_names))
    if unknown:
        raise ValueError(
            f"unknown stage(s) {unknown} in overrides; "
            f"this schedule has stages: {', '.join(stage_names)}"
        )
    out = []
    for spec in specs:
        if spec.name not in overrides:
            out.append(spec)
            continue
        replacements = _normalise_override(overrides[spec.name])
        for item in replacements:
            name = item if isinstance(item, str) else item[0]
            role = pass_role(name)  # raises UnknownPassError, listing names
            if spec.role is not None and role != spec.role:
                raise ValueError(
                    f"pass {name!r} has role {role!r} but stage {spec.name!r} "
                    f"requires role {spec.role!r}; legal substitutes: "
                    f"{', '.join(available_passes(role=spec.role))}"
                )
        out.append(replace(spec, passes=replacements))
    return tuple(out)


def iterate_stage(
    stages: "tuple[Stage, ...]",
    stage_name: str,
    *,
    max_iterations: int = 8,
) -> tuple[Stage, ...]:
    """Wrap one stage's passes in a :class:`RepeatUntilStable` controller.

    Returns a new schedule in which ``stage_name`` runs to quiescence (its
    pass group repeats until the circuit fingerprint stops changing) while
    every other stage is shared, untouched, with the input schedule.  This is
    how the experimental fixed-point preset levels are derived from the
    golden-pinned base levels without altering them.
    """
    out = []
    for stage in stages:
        if stage.name == stage_name and stage.passes:
            controller = RepeatUntilStable(
                stage.passes,
                max_iterations=max_iterations,
                name=f"{stage.name}_fixed_point",
            )
            stage = Stage(
                stage.name,
                (controller,),
                condition=stage.condition,
                record_trace=stage.record_trace,
            )
        out.append(stage)
    return tuple(out)


def preset_pass_manager(
    style: str,
    optimization_level: int,
    *,
    iterate: bool = False,
    cache: AnalysisCache | None = None,
    overrides: dict | None = None,
) -> PassManager:
    """Build the :class:`PassManager` for one preset style and level.

    This is the single source of truth for the preset flows: the pipeline
    functions below and the registered ``qiskit-o*`` / ``tket-o*`` backends
    all run the manager returned here.  With ``iterate=True`` the
    post-mapping optimization stage is wrapped in a fixed-point controller
    (the experimental ``qiskit-o3-iter`` / ``tket-o2-iter`` backends).

    ``overrides`` swaps stage slots by name before the schedule is built —
    ``overrides={"routing": "tket-routing"}`` runs the level with TKET's
    router in the routing slot and everything else untouched.  Values are
    registered pass names, ``(name, kwargs)`` pairs, or lists of those; the
    resolved passes must match the stage's declared role.  Without overrides
    the schedule is byte-identical to the golden-pinned base level.
    """
    try:
        levels = _LEVEL_TABLES[style]
    except KeyError:
        raise ValueError(
            f"unknown preset style {style!r}; expected one of {sorted(_LEVEL_TABLES)}"
        ) from None
    if optimization_level not in levels:
        label = "Qiskit" if style == "qiskit" else "TKET"
        raise ValueError(
            f"{label}-style optimization level must be between 0 and {max(levels)}"
        )
    specs = levels[optimization_level]
    name = f"{style}-o{optimization_level}"
    if overrides:
        specs = apply_stage_overrides(specs, overrides)
        name += override_suffix(overrides)
    stages = tuple(spec.build() for spec in specs)
    if iterate:
        stages = iterate_stage(stages, _POST_STAGE[style])
        name += "-iter"
    return PassManager(stages, name=name, cache=cache)


def run_preset_manager(
    manager: PassManager,
    circuit: QuantumCircuit,
    device: Device,
    seed: int = 0,
) -> tuple[QuantumCircuit, list[str]]:
    """Run a preset schedule and enforce the executable-output contract.

    Shared by the pipeline functions here and the registered preset backends
    so the finalisation invariant (the output must be executable on the
    target device) lives in exactly one place.
    """
    context = PassContext(device=device, seed=seed)
    trace: list[str] = []
    compiled = manager.run(circuit.copy(), context, trace=trace)
    cache = manager.cache
    executable = (
        cache.is_executable(compiled, device) if cache is not None else device.is_executable(compiled)
    )
    if not executable:
        raise RuntimeError(
            f"preset compilation failed to produce an executable circuit for {device.name}"
        )
    return compiled, trace


def _run_preset(
    style: str,
    circuit: QuantumCircuit,
    device: Device,
    optimization_level: int,
    seed: int,
    cache: AnalysisCache | None = None,
) -> tuple[QuantumCircuit, list[str]]:
    manager = preset_pass_manager(style, optimization_level, cache=cache)
    return run_preset_manager(manager, circuit, device, seed)


def qiskit_pipeline(
    circuit: QuantumCircuit,
    device: Device,
    optimization_level: int = 3,
    seed: int = 0,
    *,
    cache: AnalysisCache | None = None,
) -> tuple[QuantumCircuit, list[str]]:
    """Run the Qiskit-style preset pipeline (levels 0-3, default O3).

    Returns the compiled, executable circuit together with the names of the
    applied passes, in order.
    """
    if not 0 <= optimization_level <= 3:
        raise ValueError("Qiskit-style optimization level must be between 0 and 3")
    return _run_preset("qiskit", circuit, device, optimization_level, seed, cache)


def tket_pipeline(
    circuit: QuantumCircuit,
    device: Device,
    optimization_level: int = 2,
    seed: int = 0,
    *,
    cache: AnalysisCache | None = None,
) -> tuple[QuantumCircuit, list[str]]:
    """Run the TKET-style preset pipeline (levels 0-2, default O2).

    Returns the compiled, executable circuit together with the names of the
    applied passes, in order.
    """
    if not 0 <= optimization_level <= 2:
        raise ValueError("TKET-style optimization level must be between 0 and 2")
    return _run_preset("tket", circuit, device, optimization_level, seed, cache)

