"""Vectorised-environment benchmark: fleet stepping throughput + batch executors.

Measures the two parallel-execution paths this layer adds and writes the
numbers to ``benchmarks/results/BENCH_vecenv.json`` (with
``REPRO_BENCH_WRITE=1``):

* **Fleet stepping** — aggregate env-steps/sec of a synchronised
  :func:`~repro.rl.vecenv.make_compilation_vec_env` fleet (``n_envs`` in
  {1, 2, 4}) driving the same scripted compilation flow, against the
  single-environment loop PPO used before vectorisation (one default
  :class:`~repro.core.CompilationEnv`, stream-drawn pass seeds, private
  caches).  The fleet's multiplier on a single core comes from work
  sharing: members use state-keyed pass seeds and share one
  ``AnalysisCache`` + ``TransformCache``, so a pass applied to a circuit
  state any member has visited is not recomputed — exactly the redundancy
  real rollouts have (same training circuits every epoch, converging
  policies replaying the same flows).
* **Batch lanes** — ``compile_batch`` wall time on its default thread lanes
  vs a ``CompileService(process_backends=...)`` (cold caches).  On a
  single-core container the process pool's pickling round trip makes it
  slower; the number is recorded either way so multi-core CI shows the real
  ratio.

``REPRO_BENCH_SMOKE=1`` shrinks everything to one repetition (CI keeps the
artifact fresh without burning minutes).
"""

from __future__ import annotations

import os
import time

from repro.api.batch import compile_batch
from repro.bench import benchmark_circuit
from repro.core import CompilationEnv
from repro.rl import make_compilation_vec_env
from repro.service import CompileService

import numpy as np

from conftest import report, write_results

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") not in ("", "0")
EPOCHS = 1 if SMOKE else 4  # scripted epochs per fleet member

#: fixed, always-valid flow (same as the pipeline benchmark's hot loop)
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


def _write_results(section: str, payload: dict) -> None:
    write_results("BENCH_vecenv.json", {section: payload}, {"smoke": SMOKE, "epochs": EPOCHS})


def _single_env_loop(circuits, episodes: int) -> dict:
    """The pre-vectorisation rollout loop: one default env, one episode at a time."""
    env = CompilationEnv(
        circuits, device_name="ibmq_washington", max_steps=25, seed=3
    )
    steps = 0
    start = time.perf_counter()
    for _episode in range(episodes):
        env.reset()
        for name in SCRIPTED_FLOW:
            action = env.action_by_name(name)
            _obs, _reward, terminated, truncated, _info = env.step(action.index)
            steps += 1
            if terminated or truncated:
                break
    elapsed = time.perf_counter() - start
    return {"steps": steps, "seconds": round(elapsed, 4), "steps_per_sec": round(steps / elapsed, 1)}


def _fleet_loop(circuits, n_envs: int, episodes_per_member: int) -> dict:
    """Lockstep scripted rollouts over a work-sharing sync fleet."""
    vec = make_compilation_vec_env(
        circuits, n_envs, device_name="ibmq_washington", max_steps=25, seed=3
    )
    member = vec.envs[0]
    steps = 0
    start = time.perf_counter()
    vec.reset(seed=3)
    for _episode in range(episodes_per_member):
        for name in SCRIPTED_FLOW:
            index = member.action_by_name(name).index
            _obs, _rewards, terminated, truncated, _infos = vec.step(
                np.full(n_envs, index)
            )
            steps += n_envs
            if (terminated | truncated).all():
                break  # the fleet auto-resets; next loop starts fresh episodes
    elapsed = time.perf_counter() - start
    payload = {
        "steps": steps,
        "seconds": round(elapsed, 4),
        "steps_per_sec": round(steps / elapsed, 1),
        "transform_cache": member.transform_cache.stats(),
        "analysis_cache": member.analysis_cache.stats(),
    }
    vec.close()
    return payload


def test_fleet_stepping_throughput():
    circuits = _bench_circuits()
    episodes_per_member = EPOCHS * len(circuits)

    single = _single_env_loop(circuits, episodes_per_member)
    fleet: dict[str, dict] = {}
    speedups: dict[str, float] = {}
    for n_envs in (1, 2, 4):
        result = _fleet_loop(circuits, n_envs, episodes_per_member)
        fleet[str(n_envs)] = result
        speedups[str(n_envs)] = round(
            result["steps_per_sec"] / single["steps_per_sec"], 3
        )

    payload = {
        "single_env_loop": single,
        "fleet": fleet,
        "speedup_vs_single": speedups,
    }
    _write_results("env_stepping", payload)
    report(
        "\nvecenv stepping: single {0:.0f} steps/s; fleet "
        "n=1 {1:.0f}, n=2 {2:.0f}, n=4 {3:.0f} steps/s "
        "(speedup x{4:.2f}/x{5:.2f}/x{6:.2f}; n=4 transform hit rate {7:.0%})".format(
            single["steps_per_sec"],
            fleet["1"]["steps_per_sec"],
            fleet["2"]["steps_per_sec"],
            fleet["4"]["steps_per_sec"],
            speedups["1"],
            speedups["2"],
            speedups["4"],
            fleet["4"]["transform_cache"]["hit_rate"],
        )
    )
    # Smoke runs on shared CI runners stay assertion-free; the acceptance
    # ratio is checked where timing is meaningful.
    if not SMOKE:
        assert speedups["4"] >= 2.0, (
            f"SyncVectorEnv(n_envs=4) delivered only x{speedups['4']:.2f} "
            "env-steps/sec over the single-env loop"
        )


def test_batch_executor_thread_vs_process():
    circuits = _bench_circuits()
    backends = ["qiskit-o1", "tket-o1"]
    timings = {}
    rewards = {}
    for executor in ("thread", "process"):
        start = time.perf_counter()
        if executor == "thread":
            batch = compile_batch(
                circuits, backends, device="ibmq_washington", cache=None, max_workers=2
            )
        else:
            with CompileService(
                process_backends=tuple(backends), max_workers=2, min_workers=2
            ) as service:
                batch = compile_batch(
                    circuits, backends, device="ibmq_washington", service=service
                )
        timings[executor] = round(time.perf_counter() - start, 4)
        assert not batch.failures
        rewards[executor] = [round(r.reward, 9) for r in batch]

    # Thread and process lanes must compile to identical results.
    assert rewards["thread"] == rewards["process"]

    payload = {
        "thread_seconds": timings["thread"],
        "process_seconds": timings["process"],
        "process_over_thread": round(timings["process"] / timings["thread"], 2),
        "cpu_count": os.cpu_count(),
    }
    _write_results("batch_executor", payload)
    report(
        f"batch executor: thread {timings['thread']:.2f}s, "
        f"process {timings['process']:.2f}s on {os.cpu_count()} core(s)"
    )
