"""compile-sweep: one closed-loop caller compiles distinct circuits in-process.

Every input is a (family, width, device) triple: each benchmark family at
each width 3-8 appears once, and the seed draws the order and the device.
Each circuit is compiled through ``repro.compile`` with an RL ``Predictor``
(trained in set-up with a fixed seed and step count) and with ``qiskit-o1``,
``qiskit-o3`` and ``tket-o2`` on the drawn device.  No service, cache, codec
or gateway is on this path, so the time is in the pipeline, the passes,
linalg, reward, features and the RL policy.

The run is made of whole passes over the inputs: a pass always completes,
and another follows only while ``--seconds`` has not elapsed, with every
circuit moved to the next device.  The compile-quality metrics come from
the first pass, so they cover the same circuits however fast the program is.
"""

from __future__ import annotations

import random
import signal
import time

import repro
from repro.api.result import score_circuit
from repro.bench import available_benchmarks, benchmark_circuit
from repro.features import feature_vector
from repro.obs import Span, activate

from common import (
    WallLimit,
    check_output,
    mean,
    percentile,
    self_times,
    timed_setup,
    two_qubit_gates,
)

PRESETS = ("qiskit-o1", "qiskit-o3", "tket-o2")
#: ``oqc_lucy`` (8 qubits) is left out: width 8 fills it, and qiskit-o3 then
#: takes 1-2.6 s per circuit, so the device draw alone would set the tail
DEVICES = ("ibmq_montreal", "ibmq_washington", "rigetti_aspen_m2", "ionq_harmony")
WIDTHS = range(3, 9)
TRAIN_STEPS = 256
TRAIN_SEED = 0
SETUP_REPEATS = 3
#: wall limit of one compile; a compile past it counts as failed
OP_LIMIT_S = 20.0
#: latency limit of one compile for the within-limit rate
SLO_MS = 2000.0


def draw_inputs(seed: int) -> list[tuple[str, int, str]]:
    """Every (family, width) pair once, with a seeded device and order.

    The device draw is stratified: each family walks the device list from a
    seeded offset, and the offsets are dealt evenly, so every width meets
    every device about equally often.  Compile cost differs a lot between
    devices, so a free draw would let the device mix alone move a seed's
    timings.
    """
    rng = random.Random(seed)
    families = available_benchmarks()
    offsets = [index % len(DEVICES) for index in range(len(families))]
    rng.shuffle(offsets)
    triples = [
        (family, width, DEVICES[(offset + width) % len(DEVICES)])
        for family, offset in zip(families, offsets)
        for width in WIDTHS
    ]
    rng.shuffle(triples)
    return triples


def _setup(seed: int):
    inputs = []
    for family, width, device in draw_inputs(seed):
        try:
            inputs.append((benchmark_circuit(family, width), device))
        except ValueError:  # the family needs more qubits than this width
            continue
    predictor = repro.Predictor(reward="fidelity", seed=TRAIN_SEED)
    start = time.perf_counter()
    predictor.train(total_timesteps=TRAIN_STEPS)
    return inputs, predictor, time.perf_counter() - start


def _on_alarm(signum, frame):
    raise WallLimit(f"compile ran past {OP_LIMIT_S:.0f} s")


def _compile(circuit, backend, device, root=None):
    """One bounded ``repro.compile`` call; returns (seconds, result or error)."""
    signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
    start = time.perf_counter()
    try:
        with activate(root):
            result = repro.compile(circuit, backend, device=device)
    except Exception as exc:  # noqa: BLE001 - a failed compile is counted, not fatal
        return time.perf_counter() - start, f"{type(exc).__name__}: {exc}"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return time.perf_counter() - start, result


def run(seed: int, seconds: float, trace: bool) -> dict:
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    try:
        return _run(seed, seconds, trace)
    finally:
        signal.signal(signal.SIGALRM, previous)


def _run(seed: int, seconds: float, trace: bool) -> dict:
    (inputs, predictor, train_s), setup_s = timed_setup(lambda: _setup(seed), SETUP_REPEATS)
    backends = (predictor.as_backend(), *PRESETS)
    latencies, problems, failures = [], [], []
    fidelities, matches = [], []
    layer = {"stage_self": {}, "api": [], "twoq": [], "rl_ms": [], "rl_steps": [],
             "score": [], "features": [], "overhead": [], "plain": [], "preset_compiles": 0}
    attempted = 0
    start = time.perf_counter()
    deadline = start + seconds
    passes = 0
    # Whole passes only: every pass has the same stratified mix, so the
    # timings do not depend on where a deadline cut a pass.
    while passes == 0 or time.perf_counter() < deadline:
        for index, (circuit, device) in enumerate(inputs):
            if trace and index % 2:
                continue  # a traced run compiles each circuit twice
            device = DEVICES[(DEVICES.index(device) + passes) % len(DEVICES)]
            scores = {}
            for backend in backends:
                attempted += 1
                name = getattr(backend, "name", backend)
                if trace:
                    seconds_taken, result = _traced(circuit, backend, device, index, layer)
                else:
                    seconds_taken, result = _compile(circuit, backend, device)
                if isinstance(result, str) or not result.succeeded:
                    failures.append(f"{circuit.name} via {name} on {device}: "
                                    f"{result if isinstance(result, str) else result.error}")
                    continue
                latencies.append(seconds_taken)
                problems.extend(check_output(result, circuit))
                if name != "rl" and result.device.name != device:
                    problems.append(f"{circuit.name} via {name}: compiled for "
                                    f"{result.device.name}, asked for {device}")
                scores[name] = result.scores["fidelity"]
                if trace:
                    _layer_sample(circuit, name, result, layer)
            if passes == 0 and len(scores) == len(backends):
                fidelities.extend(scores.values())
                best = max(scores["qiskit-o3"], scores["tket-o2"])
                matches.append(scores["rl"] - best >= -1e-9)
        passes += 1
    elapsed = time.perf_counter() - start

    p95 = percentile(latencies, 95) * 1e3
    result = {
        "attempted": attempted,
        "failures": failures,
        "problems": problems,
        "info": {"compiles": len(latencies), "passes": passes, "circuits": len(inputs),
                 "train_s": round(train_s, 3),
                 "latency_p99_ms": round(percentile(latencies, 99) * 1e3, 2)},
    }
    if trace:
        result["per_layer"] = _layer_metrics(layer, train_s)
        return result
    within = sum(1 for value in latencies if value * 1e3 <= SLO_MS)
    result["end_to_end"] = {
        "setup_s": setup_s,
        "throughput_per_s": len(latencies) / elapsed,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p95_ms": p95,
        "max_rate_within_slo_rps": within / elapsed,
        # One caller at one priority: the whole stream is the top class.
        "hi_priority_p95_ms": p95,
        "mean_expected_fidelity": mean(fidelities),
        "rl_match_share": mean(matches),
    }
    return result


def _traced(circuit, backend, device, index, layer):
    """Compile twice, untraced and under a root span, in alternating order.

    Returns the untraced timing and result; the traced tree feeds the stage
    self times, and the paired difference is the tracing overhead.
    """
    root = Span("bench.compile")
    runs = {}
    for traced in ((False, True) if index % 4 == 0 else (True, False)):
        runs[traced] = _compile(circuit, backend, device, root if traced else None)
    root.finish()
    (plain_s, result), (traced_s, _) = runs[False], runs[True]
    if not isinstance(result, str):
        layer["plain"].append(plain_s)
        layer["overhead"].append(traced_s - plain_s)
        layer["api"].append(plain_s - result.wall_time)
        self_times(root.to_dict(), layer["stage_self"])
        if getattr(backend, "name", backend) != "rl":
            layer["preset_compiles"] += 1
    return plain_s, result


def _layer_sample(circuit, name, result, layer):
    layer["twoq"].append(two_qubit_gates(result.circuit) - two_qubit_gates(circuit))
    if name == "rl":
        layer["rl_ms"].append(layer["plain"][-1])
        layer["rl_steps"].append(len(result.actions))
    start = time.perf_counter()
    score_circuit(result.circuit, result.device)
    layer["score"].append(time.perf_counter() - start)
    start = time.perf_counter()
    feature_vector(circuit)
    layer["features"].append(time.perf_counter() - start)


def _layer_metrics(layer, train_s: float) -> dict:
    presets = max(1, layer["preset_compiles"])
    metrics = {
        f"pipeline.{name}.self_ms": total * 1e3 / presets
        for name, total in layer["stage_self"].items()
        if name.startswith("stage.")
    }
    metrics.update({
        "api.compile_overhead_ms": mean(layer["api"]) * 1e3,
        "passes.twoq_overhead": mean(layer["twoq"]),
        "rl.compile_ms": mean(layer["rl_ms"]) * 1e3,
        "rl.steps_per_compile": mean(layer["rl_steps"]),
        "rl.ppo_env_steps_per_s": TRAIN_STEPS / train_s,
        "reward.score_ms": mean(layer["score"]) * 1e3,
        "features.extract_ms": mean(layer["features"]) * 1e3,
        "trace.overhead_ms": mean(layer["overhead"]) * 1e3,
        "trace.overhead_share": mean(layer["overhead"]) / mean(layer["plain"]),
    })
    return metrics
