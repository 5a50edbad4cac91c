"""Shared fixtures for the paper-reproduction benchmarks.

The benchmarks reproduce every table and figure of the paper's evaluation at
a configurable (default: reduced) scale.  Training and comparison data are
computed once per session and shared across the individual benchmark
targets; the per-figure benchmarks then measure and print the corresponding
series.

Scale knobs (environment variables):

* ``REPRO_TRAIN_STEPS``   — PPO timesteps per model (default 6000; paper: 100000)
* ``REPRO_BENCH_QUBITS``  — qubit count for the per-family evaluation circuits (default 5)
* ``REPRO_MAX_QUBITS``    — maximum qubit count of the training suite (default 6)

``REPRO_BENCH_WRITE=1`` records a run: :func:`report` appends the paper
tables to ``benchmarks/results/latest.txt``.  Without it they only print.

Performance is not measured here: ``perfbench/run.py`` is the one seeded
harness for timings (see ``perfbench/README.md``).
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

import pytest

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.bench import BENCHMARK_GENERATORS, benchmark_circuit, benchmark_suite  # noqa: E402
from repro.core import Predictor  # noqa: E402
from repro.core.training import TrainingConfig, train_all_models  # noqa: E402
from repro.evaluation import compare_predictor  # noqa: E402
from repro.rl import PPOConfig  # noqa: E402

RESULTS_DIR = Path(__file__).resolve().parent / "results"

#: ``latest.txt`` changes only when a run is meant to record it
WRITE_RESULTS = os.environ.get("REPRO_BENCH_WRITE", "") == "1"


def report(text: str) -> None:
    """Emit reproduction data so it is visible even with pytest output capture on.

    Benchmark runs are typically invoked as ``pytest benchmarks/ --benchmark-only``
    (without ``-s``); writing to the real stdout keeps the regenerated figure
    and table data in the console / ``bench_output.txt`` log.  With
    ``REPRO_BENCH_WRITE=1`` a copy is appended to
    ``benchmarks/results/latest.txt`` for later inspection.
    """
    print(text, file=sys.__stdout__)
    if not WRITE_RESULTS:
        return
    RESULTS_DIR.mkdir(exist_ok=True)
    with open(RESULTS_DIR / "latest.txt", "a", encoding="utf-8") as handle:
        handle.write(text + "\n")


TRAIN_STEPS = int(os.environ.get("REPRO_TRAIN_STEPS", 6000))
BENCH_QUBITS = int(os.environ.get("REPRO_BENCH_QUBITS", 5))
MAX_TRAIN_QUBITS = int(os.environ.get("REPRO_MAX_QUBITS", 6))
BASELINE_DEVICE = os.environ.get("REPRO_BASELINE_DEVICE", "ibmq_washington")


@pytest.fixture(scope="session")
def training_suite():
    """Training circuits (reduced version of the paper's 200-circuit suite)."""
    return benchmark_suite(2, MAX_TRAIN_QUBITS, step=2)


@pytest.fixture(scope="session")
def evaluation_suite():
    """One circuit per benchmark family, at the configured evaluation width."""
    circuits = []
    for family, (_gen, min_qubits) in sorted(BENCHMARK_GENERATORS.items()):
        circuits.append(benchmark_circuit(family, max(BENCH_QUBITS, min_qubits)))
    return circuits


@pytest.fixture(scope="session")
def trained_models(training_suite):
    """One trained model per reward function (fidelity / critical depth / combination)."""
    config = TrainingConfig(
        total_timesteps=TRAIN_STEPS,
        max_steps=25,
        seed=0,
        ppo=PPOConfig(n_steps=128, batch_size=64, n_epochs=4),
    )
    return train_all_models(training_suite, config)


@pytest.fixture(scope="session")
def comparison_records(trained_models, evaluation_suite):
    """RL-vs-baseline comparison records for every reward function."""
    records = {}
    for reward_name, model in trained_models.items():
        records[reward_name] = compare_predictor(
            model, evaluation_suite, baseline_device=BASELINE_DEVICE, seed=0
        )
    return records
