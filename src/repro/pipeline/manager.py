"""The :class:`PassManager`: one scheduling substrate for every execution layer.

Before this layer existed the repo ran compilation passes through three
hand-rolled loops: the Qiskit-/TKET-style preset pipelines threaded passes
through local closures, the RL environment applied action payloads ad hoc,
and the API backends wrapped the presets without sharing anything.  The
``PassManager`` replaces all three with one declarative scheduler:

* a schedule is a sequence of :class:`Stage`\\ s — pure data: a name, the
  passes to run, an optional condition, and whether the stage contributes to
  the recorded pass trace;
* flow controllers such as :class:`RepeatUntilStable` implement fixed-point
  loops (repeat a pass group until the circuit stops changing);
* a :class:`PassRunner` executes individual passes and keeps a shared
  :class:`~repro.pipeline.properties.AnalysisCache` consistent by carrying
  preserved analysis results from the input to the output circuit.

The preset levels (``repro.compilers.presets``), the built-in API backends
and the RL hot loop (``repro.core.environment``) all execute through this
module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..circuit.circuit import QuantumCircuit
from ..obs import timed, timed_span
from ..passes.base import BasePass, PassContext
from .properties import AnalysisCache, TransformCache

__all__ = ["PassRunner", "RepeatUntilStable", "Stage", "PassManager"]

#: a stage condition: decides at run time whether the stage executes
StageCondition = Callable[[QuantumCircuit, PassContext], bool]


class PassRunner:
    """Executes passes one at a time against a shared analysis cache.

    This is the single choke point through which every pass execution flows
    — preset schedules, backend compilations and RL actions alike.  After a
    pass produces a new circuit, the analysis results the pass declared as
    preserved are migrated to the new circuit's property set.

    ``transform_cache``, when given, memoises whole pass applications keyed
    by (pass, input fingerprint, device, seed).  This is only sound when the
    context is constructed per application and discarded afterwards — the RL
    environment's step loop and vectorised fleets — because a memo hit skips
    any context mutation; :class:`PassManager` therefore never sets it.
    """

    def __init__(
        self,
        cache: AnalysisCache | None = None,
        transform_cache: TransformCache | None = None,
    ):
        self.cache = cache
        self.transform_cache = transform_cache

    def apply(
        self, pass_: BasePass, circuit: QuantumCircuit, context: PassContext
    ) -> QuantumCircuit:
        key = None
        if self.transform_cache is not None:
            key = TransformCache.key(pass_.name, circuit, context.device, context.seed)
            memo = self.transform_cache.get(key)
            if memo is not None:
                return memo
        # Per-pass wall time through the one choke point every pass execution
        # flows through; ``items`` counts processed gates.  Histogram only:
        # pass timings never appear in trace trees.
        with timed(f"pass.{pass_.name}", items=len(circuit)):
            out = pass_.run(circuit, context)
        if self.cache is not None and out is not circuit:
            self.cache.carry_forward(circuit, out, pass_.preserves)
        if key is not None:
            self.transform_cache.put(key, out)
        return out


class RepeatUntilStable:
    """Fixed-point flow controller: repeat a pass group until the circuit is stable.

    Stability is judged by the circuit fingerprint — the loop stops as soon
    as one full iteration leaves the circuit structurally unchanged, or after
    ``max_iterations`` rounds.  This is the controller behind re-optimization
    loops: optimization passes that enable each other can run to quiescence
    without a hand-written loop.
    """

    def __init__(
        self,
        passes: Sequence[BasePass],
        *,
        max_iterations: int = 8,
        name: str = "repeat_until_stable",
    ):
        if max_iterations < 1:
            raise ValueError("max_iterations must be at least 1")
        self.passes = tuple(passes)
        self.max_iterations = max_iterations
        self.name = name
        self.requires_device = any(p.requires_device for p in self.passes)

    def execute(
        self,
        circuit: QuantumCircuit,
        context: PassContext,
        emit: Callable[[BasePass, QuantumCircuit], QuantumCircuit],
    ) -> QuantumCircuit:
        """Run the body through ``emit`` until the fingerprint stops changing."""
        for _ in range(self.max_iterations):
            before = circuit.fingerprint()
            for pass_ in self.passes:
                circuit = emit(pass_, circuit)
            if circuit.fingerprint() == before:
                break
        return circuit

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(p.name for p in self.passes)
        return f"RepeatUntilStable([{inner}], max_iterations={self.max_iterations})"


@dataclass(frozen=True)
class Stage:
    """One declarative stage of a schedule.

    ``passes`` holds :class:`~repro.passes.base.BasePass` instances and/or
    flow controllers.  ``condition`` (if given) is evaluated against the
    current circuit and context when the stage is reached; a falsy result
    skips the whole stage.  Stages with ``record_trace=False`` execute without
    contributing to the recorded pass trace (used by clean-up stages that are
    an implementation detail rather than part of the advertised flow).
    """

    name: str
    passes: tuple = ()
    condition: StageCondition | None = None
    record_trace: bool = True

    def pass_names(self) -> list[str]:
        names: list[str] = []
        for item in self.passes:
            if isinstance(item, RepeatUntilStable):
                names.extend(p.name for p in item.passes)
            else:
                names.append(item.name)
        return names


class PassManager:
    """Runs a declarative schedule of stages over a circuit.

    The manager owns no mutable per-run state: the context, the trace list
    and the working circuit are per ``run()`` call, so one manager instance
    can be shared across threads (the batch service) and across compilations
    (the preset backends).
    """

    def __init__(
        self,
        stages: Iterable[Stage],
        *,
        name: str = "pipeline",
        cache: AnalysisCache | None = None,
    ):
        self.stages = tuple(stages)
        seen: set[str] = set()
        for stage in self.stages:
            if stage.name in seen:
                raise ValueError(
                    f"duplicate stage name {stage.name!r} in schedule {name!r}; "
                    "stage names must be unique so overrides and metrics can "
                    "address stages unambiguously"
                )
            seen.add(stage.name)
        self.name = name
        self.cache = cache
        self.requires_device = any(
            getattr(item, "requires_device", False)
            for stage in self.stages
            for item in stage.passes
        )

    def run(
        self,
        circuit: QuantumCircuit,
        context: PassContext | None = None,
        *,
        trace: list[str] | None = None,
    ) -> QuantumCircuit:
        """Execute the schedule and return the transformed circuit.

        ``trace``, when given, collects the names of the applied passes in
        order (stages with ``record_trace=False`` excluded).
        """
        context = context or PassContext()
        runner = PassRunner(self.cache)
        for stage in self.stages:
            if stage.condition is not None and not stage.condition(circuit, context):
                continue
            recording = trace if stage.record_trace else None

            def emit(pass_: BasePass, circ: QuantumCircuit) -> QuantumCircuit:
                if recording is not None:
                    recording.append(pass_.name)
                return runner.apply(pass_, circ, context)

            # Per-stage wall time under the stage's schedule name, so
            # /metrics attributes time to the same names that overrides
            # address (pass-level timings nest inside).  One measurement
            # feeds the always-on histogram and, when a trace is active on
            # this thread, a child span of the request's trace.
            with timed_span(f"stage.{stage.name}", items=len(circuit)):
                circuit = self._run_stage(stage, circuit, context, emit)
        return circuit

    @staticmethod
    def _run_stage(
        stage: Stage,
        circuit: QuantumCircuit,
        context: PassContext,
        emit: Callable[[BasePass, QuantumCircuit], QuantumCircuit],
    ) -> QuantumCircuit:
        for item in stage.passes:
            if isinstance(item, RepeatUntilStable):
                circuit = item.execute(circuit, context, emit)
            else:
                circuit = emit(item, circuit)
        return circuit

    # -- introspection ---------------------------------------------------------------

    def describe(self) -> list[dict]:
        """The schedule as plain data (stage name, passes, conditional flags)."""
        return [
            {
                "stage": stage.name,
                "passes": stage.pass_names(),
                "conditional": stage.condition is not None,
                "record_trace": stage.record_trace,
            }
            for stage in self.stages
        ]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PassManager({self.name!r}, stages={[s.name for s in self.stages]})"
