"""Comparison of the RL compiler against the Qiskit/TKET-style baselines.

This implements the core of the paper's evaluation protocol (Section IV-B):
every benchmark circuit is compiled once with the trained RL model and once
with each baseline at its highest optimization level (Qiskit O3, TKET O2,
both targeting ``ibmq_washington``), and all three results are scored with
the same reward function.  The absolute difference "RL minus baseline" is
what Figs. 3a-f plot.

The comparison is built on the unified backend registry
(:mod:`repro.api`): the trained :class:`~repro.core.predictor.Predictor` is
wrapped in a :class:`~repro.api.backends.PredictorBackend` and swept together
with the named baseline backends through :func:`repro.api.compile_batch`, so
baseline compilations are cached — comparing several reward models over the
same suite compiles each baseline circuit only once.  Unfinished RL
compilations and baseline failures are surfaced as
:class:`RuntimeWarning`\\ s (and scored 0.0) instead of silently collapsing
into the statistics.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from ..api.backends import PredictorBackend
from ..api.batch import CompilationCache, compile_batch
from ..circuit.circuit import QuantumCircuit
from ..core.predictor import Predictor
from ..devices.library import get_device
from ..reward.functions import reward_function

__all__ = ["ComparisonRecord", "ComparisonSummary", "compare_predictor", "summarize"]


@dataclass
class ComparisonRecord:
    """Reward values for one circuit under the RL model and both baselines."""

    circuit_name: str
    benchmark: str
    num_qubits: int
    metric: str
    rl_reward: float
    qiskit_reward: float
    tket_reward: float
    rl_device: str | None = None

    @property
    def diff_vs_qiskit(self) -> float:
        return self.rl_reward - self.qiskit_reward

    @property
    def diff_vs_tket(self) -> float:
        return self.rl_reward - self.tket_reward


@dataclass
class ComparisonSummary:
    """Aggregate statistics over a list of comparison records."""

    metric: str
    num_circuits: int
    fraction_better_or_equal_qiskit: float
    fraction_better_or_equal_tket: float
    mean_diff_qiskit: float
    mean_diff_tket: float
    records: list[ComparisonRecord] = field(default_factory=list)

    def format_table(self) -> str:
        lines = [
            f"Metric: {self.metric} ({self.num_circuits} circuits)",
            f"  outperforms or matches Qiskit-O3 in {100 * self.fraction_better_or_equal_qiskit:.1f}% of cases",
            f"  outperforms or matches TKET-O2   in {100 * self.fraction_better_or_equal_tket:.1f}% of cases",
            f"  mean reward difference vs Qiskit-O3: {self.mean_diff_qiskit:+.4f}",
            f"  mean reward difference vs TKET-O2:   {self.mean_diff_tket:+.4f}",
        ]
        return "\n".join(lines)


def _scored(result, metric_name: str, circuit_name: str) -> float:
    """The requested metric of one batch result, warning on failures."""
    if not result.succeeded:
        warnings.warn(
            f"{result.backend} compilation of {circuit_name!r} failed "
            f"({result.error}); scoring it as 0.0",
            RuntimeWarning,
            stacklevel=3,
        )
        return 0.0
    return float(result.scores[metric_name])


def compare_predictor(
    predictor: Predictor,
    circuits: list[QuantumCircuit],
    *,
    baseline_device: str = "ibmq_washington",
    metric: str | None = None,
    seed: int = 0,
    qiskit_backend: str = "qiskit-o3",
    tket_backend: str = "tket-o2",
    max_workers: int | None = None,
    cache: CompilationCache | None = None,
) -> list[ComparisonRecord]:
    """Compile every circuit with the RL model and both baselines; score all three.

    The RL model is free to select its own target device (as in the paper);
    the baseline backends always target ``baseline_device``.  All results are
    scored with ``metric`` (default: the predictor's own reward function) on
    the device each compiled circuit actually targets.  The three backends are
    swept through :func:`repro.api.compile_batch`, so baseline compilations
    are cached and reused across calls (default: the process-wide cache; pass
    ``cache`` for an isolated one).  The sweep runs on a short-lived
    :class:`~repro.service.CompileService` with one lane per backend;
    ``max_workers`` (default: CPU count, capped at the circuit count) is
    split evenly across the three lanes with at least one worker each, so
    ``max_workers=1`` still runs one compile per backend at a time.
    """
    metric_name = metric or predictor.reward_name
    reward_function(metric_name)  # fail fast on unknown metrics
    device = get_device(baseline_device)
    rl = PredictorBackend(predictor)
    batch_kwargs = {} if cache is None else {"cache": cache}
    batch = compile_batch(
        circuits,
        backends=[rl, qiskit_backend, tket_backend],
        device=device,
        objective=metric_name,
        seed=seed,
        max_workers=max_workers,
        **batch_kwargs,
    )
    records: list[ComparisonRecord] = []
    for index, circuit in enumerate(circuits):
        rl_result = batch.get(index, rl.name)
        qiskit_result = batch.get(index, qiskit_backend)
        tket_result = batch.get(index, tket_backend)
        records.append(
            ComparisonRecord(
                circuit_name=circuit.name,
                benchmark=str(circuit.metadata.get("benchmark", circuit.name.rsplit("_", 1)[0])),
                num_qubits=len(circuit.active_qubits() or {0}),
                metric=metric_name,
                rl_reward=_scored(rl_result, metric_name, circuit.name),
                qiskit_reward=_scored(qiskit_result, metric_name, circuit.name),
                tket_reward=_scored(tket_result, metric_name, circuit.name),
                rl_device=rl_result.device.name if rl_result.device else None,
            )
        )
    return records


def summarize(records: list[ComparisonRecord]) -> ComparisonSummary:
    """Aggregate a record list into the headline percentages of the paper."""
    if not records:
        raise ValueError("cannot summarise an empty record list")
    diffs_qiskit = np.array([r.diff_vs_qiskit for r in records])
    diffs_tket = np.array([r.diff_vs_tket for r in records])
    return ComparisonSummary(
        metric=records[0].metric,
        num_circuits=len(records),
        fraction_better_or_equal_qiskit=float(np.mean(diffs_qiskit >= -1e-9)),
        fraction_better_or_equal_tket=float(np.mean(diffs_tket >= -1e-9)),
        mean_diff_qiskit=float(diffs_qiskit.mean()),
        mean_diff_tket=float(diffs_tket.mean()),
        records=list(records),
    )
