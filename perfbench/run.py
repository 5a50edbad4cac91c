"""Run one seeded workload of the repro benchmark and print its metrics.

    python3 perfbench/run.py --workload compile-sweep --seed 1 --seconds 20 --trace 0

Workloads: ``compile-sweep``, ``gateway-hot`` and ``service-churn`` (see
``perfbench/README.md``).  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` runs the workload with span collection and prints the
per-layer metrics plus the tracing overhead.  The last line of standard
output is one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Exit codes: 0 when every output check passed, 1 when a check failed (the
result line is still printed), 2 when the program under test cannot be
imported, 3 when the run hit its whole-run wall limit (no result line).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
#: whole-run wall limit; a run past it is killed without a result
RUN_LIMIT_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "max_rate_within_slo_rps": "1/s",
    "hi_priority_p95_ms": "ms",
    "mean_expected_fidelity": "ratio",
    "rl_match_share": "ratio",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "api.compile_overhead_ms": "ms",
    **{
        f"pipeline.stage.{stage}.self_ms": "ms"
        for stage in (
            "pre_optimization", "synthesis", "layout", "routing", "post_optimization",
            "rebase", "placement", "post_routing", "finalise",
        )
    },
    "passes.twoq_overhead": "count",
    "rl.compile_ms": "ms",
    "rl.steps_per_compile": "count",
    "rl.ppo_env_steps_per_s": "1/s",
    "reward.score_ms": "ms",
    "features.extract_ms": "ms",
    "codec.to_qasm_ms": "ms",
    "codec.from_qasm_ms": "ms",
    "codec.result_to_dict_ms": "ms",
    "codec.result_from_dict_ms": "ms",
    "gateway.http_overhead_ms": "ms",
    "gateway.request_self_ms": "ms",
    "gateway.rate_limited": "count",
    "service.self_ms": "ms",
    "service.queue_wait_ms": "ms",
    "service.lane_execute_ms": "ms",
    "service.cache_hit_rate": "ratio",
    "service.cache_lookups": "count",
    "service.cache_evictions": "count",
    "service.coalesced_share": "ratio",
    "service.autoscale_events": "count",
    "loadgen.late_p99_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.overhead_share": "ratio",
}

WORKLOADS = ("compile-sweep", "gateway-hot", "service-churn")


def _watchdog() -> None:
    print(f"run passed its {RUN_LIMIT_S:.0f} s wall limit; no result", file=sys.stderr)
    sys.stderr.flush()
    os._exit(3)


def _load(workload: str):
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program under test from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    if SRC not in Path(repro.__file__).resolve().parents:
        print(f"repro was imported from {repro.__file__}, not from {SRC}", file=sys.stderr)
        sys.exit(2)
    if workload == "compile-sweep":
        import compile_sweep

        return compile_sweep.run
    import serving

    return serving.run_gateway_hot if workload == "gateway-hot" else serving.run_service_churn


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    timer = threading.Timer(RUN_LIMIT_S, _watchdog)
    timer.daemon = True
    timer.start()
    run = _load(args.workload)
    from common import fingerprint, peak_rss_mb

    outcome = run(args.seed, args.seconds, bool(args.trace))
    if args.trace:
        values = {name: 0.0 for name in PER_LAYER}  # 0: the layer does no work here
        values.update(outcome["per_layer"])
        units = PER_LAYER
    else:
        values = dict(outcome["end_to_end"], peak_rss_mb=peak_rss_mb())
        units = END_TO_END
    unknown = set(values) - set(units)
    if unknown:
        raise RuntimeError(f"workload reported unlisted metrics: {sorted(unknown)}")

    failures, problems = outcome["failures"], outcome["problems"]
    attempted = outcome["attempted"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  machine {json.dumps(fingerprint())}")
    print(f"info {json.dumps(outcome.get('info', {}))}")
    print(f"attempted {attempted}  failed {len(failures)}  "
          f"failed_share {len(failures) / max(1, attempted):.4f}")
    for line in failures[:20]:
        print(f"FAILED  {line}")
    for line in problems[:20]:
        print(f"CHECK   {line}")
    for name in units:
        print(f"{name:<40} {values[name]:>14.4f} {units[name]}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }))
    sys.stdout.flush()
    timer.cancel()
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
