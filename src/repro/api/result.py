"""The unified :class:`CompilationResult` returned by every compiler backend.

Historically the framework had two incompatible result types: the RL
``Predictor`` returned ``repro.core.predictor.CompilationResult`` while the
preset baselines returned ``repro.compilers.presets.CompiledCircuit``.  The
evaluation harness had to hand-stitch the two together.  This module merges
them: one dataclass carrying the compiled circuit, the target device, the
objective scores, the applied pass/action trace, wall-clock time, the backend
that produced it, and structured success/error information.

``repro.core.CompilationResult`` is now an alias of this class, so code
written against the old Predictor API keeps working unchanged.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..circuit.circuit import QuantumCircuit
from ..devices.device import Device
from ..reward.functions import critical_depth_reward, expected_fidelity, mean_reward

__all__ = ["CompilationResult", "score_circuit"]


def score_circuit(circuit: QuantumCircuit, device: Device) -> dict[str, float]:
    """Evaluate ``circuit`` on ``device`` under every registered reward function.

    Keys follow ``REWARD_FUNCTIONS``.  Each part is computed once: the
    combination is the mean of the fidelity and critical-depth scores
    already in hand, not a second walk of the circuit.
    """
    fidelity = expected_fidelity(circuit, device)
    depth = critical_depth_reward(circuit, device)
    return {
        "fidelity": float(fidelity),
        "critical_depth": float(depth),
        "combination": float(mean_reward(fidelity, depth)),
    }


@dataclass
class CompilationResult:
    """Outcome of compiling one circuit with any backend (RL model or preset).

    The first six fields keep the order of the pre-registry Predictor result,
    so existing positional constructions continue to work.
    """

    #: the compiled circuit (or the untouched input when ``succeeded`` is False)
    circuit: QuantumCircuit
    #: the device the circuit was compiled for (``None`` if compilation failed
    #: before a device was chosen)
    device: Device | None
    #: the achieved value of the optimization objective (0.0 on failure)
    reward: float
    #: name of the optimization objective (``fidelity`` / ``critical_depth`` / ...)
    reward_name: str
    #: the applied pass/action trace, in order
    actions: list[str] = field(default_factory=list)
    #: whether the compilation flow reached the terminal "Done" state
    reached_done: bool = True
    #: name of the backend that produced this result (``rl``, ``qiskit-o3``, ...)
    backend: str = ""
    #: the compiled circuit scored under *every* reward function (empty on failure)
    scores: dict[str, float] = field(default_factory=dict)
    #: wall-clock compile time in seconds
    wall_time: float = 0.0
    #: False when compilation failed or did not produce an executable circuit
    succeeded: bool = True
    #: human-readable error description when ``succeeded`` is False
    error: str | None = None
    #: free-form extras (batch bookkeeping, best-of candidate scores, ...)
    metadata: dict = field(default_factory=dict)

    # -- compatibility aliases ---------------------------------------------------------

    @property
    def passes(self) -> list[str]:
        """Alias for :attr:`actions` (the old ``CompiledCircuit`` field name)."""
        return self.actions

    @property
    def objective(self) -> str:
        """Alias for :attr:`reward_name`."""
        return self.reward_name

    @property
    def trace(self) -> dict | None:
        """The request's span tree, when it was compiled under a trace.

        Populated by the compile service (``metadata["trace"]``): a JSON-able
        nested dict of ``{name, trace_id, span_id, duration, children, ...}``
        nodes — rebuild a :class:`~repro.obs.Span` tree with
        ``Span.from_dict(result.trace)``.  ``None`` for untraced requests.
        """
        return self.metadata.get("trace")

    # -- helpers -----------------------------------------------------------------------

    def with_objective(self, objective: str) -> "CompilationResult":
        """Return a copy whose headline ``reward`` tracks a different objective.

        Compilation itself is objective-independent for the preset backends, so
        a cached result can be re-pointed at another metric without recompiling.
        Falls back to the current reward when the score is unavailable.  Always
        returns a fresh object (with a fresh ``metadata`` dict) so callers can
        annotate it without touching cached state.
        """
        return replace(
            self,
            reward=self.scores.get(objective, self.reward),
            reward_name=objective,
            metadata=dict(self.metadata),
        )

    def to_dict(self) -> dict:
        """JSON-serialisable view of the result (the gateway's wire format).

        The circuit travels as OpenQASM 2 text and the device as its registered
        name, so the payload round-trips through ``json.dumps`` with no custom
        encoder.  Structured failure information (``succeeded`` / ``error`` /
        ``metadata`` — including the service's ``deadline_exceeded`` marker)
        rides along unchanged.
        """
        from ..circuit.qasm import to_qasm

        return {
            "qasm": to_qasm(self.circuit),
            "circuit_name": self.circuit.name,
            "device": self.device.name if self.device is not None else None,
            "reward": float(self.reward),
            "reward_name": self.reward_name,
            "actions": list(self.actions),
            "reached_done": bool(self.reached_done),
            "backend": self.backend,
            "scores": {name: float(value) for name, value in self.scores.items()},
            "wall_time": float(self.wall_time),
            "succeeded": bool(self.succeeded),
            "error": self.error,
            "metadata": dict(self.metadata),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CompilationResult":
        """Rebuild a result from :meth:`to_dict` output (e.g. a gateway response).

        Raises ``KeyError`` when mandatory fields (``qasm`` / ``reward_name``)
        are missing and propagates :class:`~repro.circuit.QasmError` for a
        circuit that does not parse; an unknown device name degrades to
        ``device=None`` (recorded in ``metadata["unknown_device"]``) so results
        from a server with a richer device library still deserialise.
        """
        from ..circuit.qasm import from_qasm
        from ..devices.library import get_device

        circuit = from_qasm(payload["qasm"])
        circuit.name = payload.get("circuit_name") or circuit.name
        metadata = dict(payload.get("metadata") or {})
        device = None
        device_name = payload.get("device")
        if device_name is not None:
            try:
                device = get_device(device_name)
            except KeyError:
                metadata["unknown_device"] = device_name
        return cls(
            circuit=circuit,
            device=device,
            reward=float(payload.get("reward", 0.0)),
            reward_name=payload["reward_name"],
            actions=list(payload.get("actions") or []),
            reached_done=bool(payload.get("reached_done", True)),
            backend=payload.get("backend", ""),
            scores={k: float(v) for k, v in (payload.get("scores") or {}).items()},
            wall_time=float(payload.get("wall_time", 0.0)),
            succeeded=bool(payload.get("succeeded", True)),
            error=payload.get("error"),
            metadata=metadata,
        )

    def summary(self) -> str:
        device_name = self.device.name if self.device else "-"
        text = (
            f"{self.circuit.name}: reward[{self.reward_name}]={self.reward:.4f} "
            f"on {device_name} via {len(self.actions)} actions"
        )
        if self.backend:
            text += f" [{self.backend}]"
        if not self.succeeded:
            text += f" (FAILED: {self.error})"
        return text
