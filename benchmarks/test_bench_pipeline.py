"""Pipeline-layer benchmark: RL env stepping and preset wall time, cache on/off.

Measures the two hot paths the pipeline refactor targets and writes the
numbers to ``benchmarks/results/BENCH_pipeline.json`` (with
``REPRO_BENCH_WRITE=1``) so per-PR regressions
are visible:

* **Env stepping** — a fixed, scripted compilation flow executed over
  repeated episodes of :class:`~repro.core.CompilationEnv`, once with the
  shared :class:`~repro.pipeline.AnalysisCache` (the default) and once
  bypassed.  Every PPO step of a training run pays this cost; the cache
  serves the per-step feature extraction and executability checks from
  fingerprint-keyed entries.  The action sequence and all observations are
  identical in both modes — only the speed may differ.
* **Preset pipelines** — cold wall time per preset level, plus the speedup
  of re-sweeping the same circuits through ``compile_batch`` with the
  result LRU cache warm vs. disabled.

Scale knobs: ``REPRO_BENCH_SMOKE=1`` shrinks everything to one repetition
(used by CI to keep the benchmark artifact fresh without burning minutes).
"""

from __future__ import annotations

import os
import time

from repro.api.batch import CompilationCache, compile_batch
from repro.bench import benchmark_circuit
from repro.compilers import qiskit_pipeline, tket_pipeline
from repro.core import CompilationEnv
from repro.devices import get_device

from conftest import report, write_results

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
EPISODES = 1 if SMOKE else 6
TIMING_ROUNDS = 1 if SMOKE else 2

#: a fixed, always-valid compilation flow (the same one in both cache modes)
SCRIPTED_FLOW = [
    "synthesis_basis_translator",
    "optimize_optimize_1q_gates",
    "map_dense_layout_sabre_routing",
    "optimize_cx_cancellation",
    "optimize_optimize_1q_gates",
    "optimize_commutative_cancellation",
    "optimize_inverse_cancellation",
    "optimize_remove_redundancies",
    "terminate",
]


def _bench_circuits():
    width = 5 if SMOKE else 8
    return [
        benchmark_circuit("qft", width),
        benchmark_circuit("su2random", width),
        benchmark_circuit("qftentangled", width),
    ]


def _scripted_rollout(circuits, *, use_cache: bool):
    """Run the scripted flow for EPISODES episodes; return steps, time, trajectory."""
    env = CompilationEnv(
        circuits,
        reward="fidelity",
        device_name="ibmq_washington",
        max_steps=25,
        seed=3,
        use_analysis_cache=use_cache,
    )
    steps = 0
    trajectory: list[str] = []
    start = time.perf_counter()
    for _episode in range(EPISODES * len(circuits)):
        env.reset(seed=3)
        for name in SCRIPTED_FLOW:
            action = env.action_by_name(name)
            _obs, _reward, terminated, truncated, _info = env.step(action.index)
            steps += 1
            if terminated or truncated:
                break
        trajectory.extend(env.state.applied_actions)
    elapsed = time.perf_counter() - start
    stats = env.analysis_cache.stats() if env.analysis_cache is not None else None
    return steps, elapsed, trajectory, stats


def _write_results(section: str, payload: dict) -> None:
    write_results(
        "BENCH_pipeline.json", {section: payload}, {"smoke": SMOKE, "episodes": EPISODES}
    )


def test_env_stepping_cached_vs_bypassed():
    circuits = _bench_circuits()
    best: dict[str, dict] = {}
    trajectories: dict[str, list[str]] = {}
    for mode, use_cache in (("cached", True), ("bypassed", False)):
        for _round in range(TIMING_ROUNDS):
            steps, elapsed, trajectory, stats = _scripted_rollout(circuits, use_cache=use_cache)
            rate = steps / elapsed
            if mode not in best or rate > best[mode]["steps_per_sec"]:
                best[mode] = {
                    "steps": steps,
                    "seconds": round(elapsed, 4),
                    "steps_per_sec": round(rate, 1),
                }
                if stats is not None:
                    best[mode]["analysis_cache"] = stats
            trajectories[mode] = trajectory

    # The cache must never change the compilation flow itself.
    assert trajectories["cached"] == trajectories["bypassed"]

    ratio = best["cached"]["steps_per_sec"] / best["bypassed"]["steps_per_sec"]
    payload = {**best, "speedup_ratio": round(ratio, 3)}
    _write_results("env_stepping", payload)
    report(
        f"\nenv stepping: cached {best['cached']['steps_per_sec']:.0f} steps/s, "
        f"bypassed {best['bypassed']['steps_per_sec']:.0f} steps/s "
        f"(speedup x{ratio:.2f}, hit rate "
        f"{best['cached']['analysis_cache']['hit_rate']:.0%})"
    )
    # No tight wall-clock assertion: this file runs inside the blocking tier-1
    # suite and shared CI runners are noisy.  Guard only against the cache
    # being a catastrophic slowdown; the real ratio lives in the JSON artifact.
    if not SMOKE:
        assert ratio > 0.5, f"analysis cache made env stepping far slower (x{ratio:.2f})"


def test_preset_pipeline_wall_time():
    device = get_device("ibmq_washington")
    circuit = benchmark_circuit("qft", 5 if SMOKE else 7)
    levels = {}
    for style, pipeline, max_level in (("qiskit", qiskit_pipeline, 3), ("tket", tket_pipeline, 2)):
        for level in range(max_level + 1):
            start = time.perf_counter()
            for _round in range(TIMING_ROUNDS):
                pipeline(circuit, device, level, seed=0)
            levels[f"{style}-o{level}"] = round((time.perf_counter() - start) / TIMING_ROUNDS, 4)

    # Re-sweeping the same circuits: result-LRU warm vs. caching disabled.
    circuits = _bench_circuits()
    backends = ["qiskit-o3", "tket-o2"]
    cache = CompilationCache()
    compile_batch(circuits, backends, device=device, cache=cache)  # warm it
    start = time.perf_counter()
    warm = compile_batch(circuits, backends, device=device, cache=cache, max_workers=1)
    warm_time = time.perf_counter() - start
    start = time.perf_counter()
    cold = compile_batch(circuits, backends, device=device, cache=None, max_workers=1)
    cold_time = time.perf_counter() - start
    assert all(r.succeeded for r in warm) and all(r.succeeded for r in cold)
    resweep_ratio = cold_time / warm_time if warm_time > 0 else float("inf")

    payload = {
        "cold_wall_time_seconds": levels,
        "resweep": {
            "warm_seconds": round(warm_time, 4),
            "cold_seconds": round(cold_time, 4),
            "speedup_ratio": round(resweep_ratio, 1),
        },
    }
    _write_results("preset_pipelines", payload)
    report(
        f"preset wall time (s): {levels}; warm re-sweep speedup x{resweep_ratio:.0f}"
    )
    if not SMOKE:
        assert resweep_ratio > 2.0
