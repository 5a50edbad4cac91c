"""End-to-end experiment driver reproducing the paper's evaluation.

``run_experiment`` performs the full pipeline of Section IV: build the
benchmark suite, train one model per reward function, compare every model
against the baseline backends (default Qiskit-O3 / TKET-O2, Figs. 3a-f), and
compute the cross-model reward matrix (Table I).

The comparisons run through the unified backend registry (:mod:`repro.api`):
baselines are addressed by backend name and swept with the caching batch
service, so the baseline compilations are shared across the per-reward models
instead of being recomputed three times.

Budgets are configurable so the identical code path runs both at paper scale
(200 circuits, 100k timesteps — hours) and at test/benchmark scale (a handful
of circuits, a few thousand timesteps — minutes).  Environment variables
``REPRO_TRAIN_STEPS``, ``REPRO_MIN_QUBITS``, ``REPRO_MAX_QUBITS`` and
``REPRO_QUBIT_STEP`` override the defaults used by the benchmark harness.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from ..bench.suite import benchmark_suite
from ..circuit.circuit import QuantumCircuit
from ..core.predictor import Predictor
from ..core.training import TrainingConfig, train_all_models
from ..reward.functions import REWARD_FUNCTIONS
from ..rl.ppo import PPOConfig
from .comparison import ComparisonRecord, ComparisonSummary, compare_predictor, summarize
from .figures import (
    HistogramData,
    PerBenchmarkData,
    per_benchmark_differences,
    reward_difference_histogram,
)
from .tables import CrossModelTable, cross_model_rewards

__all__ = ["ExperimentConfig", "ExperimentResults", "run_experiment", "default_config_from_env"]


@dataclass
class ExperimentConfig:
    """Scale knobs for the end-to-end experiment."""

    train_timesteps: int = 100_000
    min_qubits: int = 2
    max_qubits: int = 20
    qubit_step: int = 2
    benchmark_names: list[str] | None = None
    max_episode_steps: int = 25
    baseline_device: str = "ibmq_washington"
    seed: int = 0
    rewards: list[str] = field(default_factory=lambda: list(REWARD_FUNCTIONS))
    #: registered backend names the RL models are compared against
    qiskit_backend: str = "qiskit-o3"
    tket_backend: str = "tket-o2"
    #: worker threads of the batch-compilation service, split across its
    #: backend lanes with at least one each (None: one per CPU, capped at
    #: the circuit count; thread-based, so overlap is limited to NumPy-heavy
    #: passes)
    max_workers: int | None = None


@dataclass
class ExperimentResults:
    """Everything needed to regenerate the paper's figures and table."""

    config: ExperimentConfig
    models: dict[str, Predictor]
    records: dict[str, list[ComparisonRecord]]
    summaries: dict[str, ComparisonSummary]
    histograms: dict[str, HistogramData]
    per_benchmark: dict[str, PerBenchmarkData]
    table1: CrossModelTable


def default_config_from_env(**overrides) -> ExperimentConfig:
    """Build a config from environment variables (reduced-scale defaults)."""
    config = ExperimentConfig(
        train_timesteps=int(os.environ.get("REPRO_TRAIN_STEPS", 3000)),
        min_qubits=int(os.environ.get("REPRO_MIN_QUBITS", 2)),
        max_qubits=int(os.environ.get("REPRO_MAX_QUBITS", 6)),
        qubit_step=int(os.environ.get("REPRO_QUBIT_STEP", 2)),
    )
    for key, value in overrides.items():
        setattr(config, key, value)
    return config


def build_suite(config: ExperimentConfig) -> list[QuantumCircuit]:
    """The benchmark suite used for both training and evaluation (as in the paper)."""
    return benchmark_suite(
        config.min_qubits,
        config.max_qubits,
        names=config.benchmark_names,
        step=config.qubit_step,
    )


def run_experiment(config: ExperimentConfig | None = None) -> ExperimentResults:
    """Run the full train-and-evaluate pipeline of the paper's Section IV."""
    config = config or default_config_from_env()
    suite = build_suite(config)

    training_config = TrainingConfig(
        total_timesteps=config.train_timesteps,
        max_steps=config.max_episode_steps,
        seed=config.seed,
        ppo=PPOConfig(n_steps=128, batch_size=64, n_epochs=6),
    )
    all_models = train_all_models(suite, training_config)
    models = {name: model for name, model in all_models.items() if name in config.rewards}

    records: dict[str, list[ComparisonRecord]] = {}
    summaries: dict[str, ComparisonSummary] = {}
    histograms: dict[str, HistogramData] = {}
    per_benchmark: dict[str, PerBenchmarkData] = {}
    for reward_name, model in models.items():
        reward_records = compare_predictor(
            model,
            suite,
            baseline_device=config.baseline_device,
            seed=config.seed,
            qiskit_backend=config.qiskit_backend,
            tket_backend=config.tket_backend,
            max_workers=config.max_workers,
        )
        records[reward_name] = reward_records
        summaries[reward_name] = summarize(reward_records)
        histograms[reward_name] = reward_difference_histogram(reward_records)
        per_benchmark[reward_name] = per_benchmark_differences(reward_records)

    table1 = cross_model_rewards(models, suite)
    return ExperimentResults(
        config=config,
        models=models,
        records=records,
        summaries=summaries,
        histograms=histograms,
        per_benchmark=per_benchmark,
        table1=table1,
    )
