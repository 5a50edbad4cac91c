"""gateway-hot and service-churn: open-loop traffic through the serving layers.

Both workloads draw compile requests from a seeded Zipf distribution over a
key set of (family, width, device, backend) tuples, send them on a fixed
schedule, and time each request from when it was due.  After the timed window
every served result is compared with an in-process ``repro.compile`` of its
key: same circuit, same scores.

* gateway-hot: 2 sender threads, one per tenant, call ``GatewayClient.compile``
  on a small key set that set-up has already compiled, so nearly every request
  is a cache hit.  The offered rate steps up through ``GATEWAY_STEPS``.
* service-churn: one thread calls ``CompileService.submit`` at a fixed rate on
  a working set larger than the service cache, with bursts of duplicates and
  a high-priority class.

A traced run marks every other request as traced and compares the two halves:
the difference in mean latency is the tracing overhead.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import Counter

import repro
from repro.api.result import CompilationResult
from repro.bench import available_benchmarks, benchmark_circuit
from repro.circuit.qasm import from_qasm, to_qasm
from repro.gateway import GatewayClient, GatewayServer, Tenant
from repro.obs import Span, new_trace_id

from common import (
    Sender,
    check_output,
    mean,
    median_of,
    percentile,
    same_result,
    self_times,
    timed_setup,
)

DEVICES = ("ibmq_montreal", "ibmq_washington", "rigetti_aspen_m2", "ionq_harmony")
SETUP_REPEATS = 3
#: wall limit of one request, counted from when it was due
OP_LIMIT_S = 20.0
HI_PRIORITY = 5
#: per-request latency limit for the within-limit rate
SLO_MS = 250.0


def key_pool(pool_seed: int, count: int, widths, backends) -> list[tuple]:
    """A fixed key set in popularity order, the same for every workload seed.

    Holding the pool and its ranking fixed keeps the payload mix, and with
    it the cost of a request, the same across seeds; the workload seed draws
    the request sequence, the priorities and the bursts.
    """
    grid = [
        (family, width, device, backend)
        for family in available_benchmarks()
        for width in widths
        for device in DEVICES
        for backend in backends
        if not (family == "tsp" and width < 4)
    ]
    return random.Random(pool_seed).sample(grid, count)


def zipf_weights(count: int, exponent: float) -> list[float]:
    return [1.0 / (rank + 1) ** exponent for rank in range(count)]


class Request:
    """One scheduled request: a key, its circuit, its priority, whether traced."""

    __slots__ = ("key", "circuit", "priority", "trace_id")

    def __init__(self, key, circuit, priority, trace_id=None):
        self.key, self.circuit, self.priority, self.trace_id = key, circuit, priority, trace_id


def _requests(rng, keys, circuits, weights, count, trace: bool, hi_share: float = 0.0):
    """``count`` Zipf draws; with ``trace``, every other one gets a fresh trace id."""
    return [
        Request(
            key,
            circuits[key],
            HI_PRIORITY if rng.random() < hi_share else 0,
            new_trace_id() if trace and n % 2 else None,
        )
        for n, key in enumerate(rng.choices(keys, weights, k=count))
    ]


def _failed(outcome) -> bool:
    return isinstance(outcome, str) or not outcome.succeeded


# -- checks and metrics shared by both workloads ---------------------------------------


def _verify(records, circuits, codec: bool):
    """Compare every served result with an in-process compile of its key.

    Returns (problems, references).  ``codec`` means the results crossed
    the HTTP codec, so the reference is compared after the same QASM trip.
    """
    problems, references = [], {}
    for key in {record[0].key for record in records}:
        _family, _width, device, backend = key
        reference = repro.compile(circuits[key], backend, device=device)
        problems.extend(check_output(reference, circuits[key]))
        if codec:
            reference = CompilationResult(
                from_qasm(to_qasm(reference.circuit)), reference.device,
                reference.reward, reference.reward_name, scores=reference.scores,
            )
        references[key] = reference
    for request, *_times, served in records:
        if _failed(served):
            continue
        if not same_result(served, references[request.key]) or served.device.name != request.key[2]:
            problems.append(f"{request.key}: served result differs from the in-process compile")
    return problems, references


def _end_to_end(records, elapsed, setup_s, references, blocks) -> tuple[dict, list]:
    """End-to-end metrics, and the latency percentiles of each block.

    ``blocks`` splits the schedule into equal time slices with the same
    traffic mix; each reported latency percentile is the mean over the
    blocks, so a slice hit by a slow spell of this shared machine moves it
    less than it would move a pooled percentile.  The mean, not the median:
    over 6 seeds per workload a median of blocks kept the sampling noise of
    small blocks, which the mean smooths.  The p99 is left out: on the
    reference machine its spread across seeds (25-40% of the median) was
    wider than any bound the benchmark may set.
    """
    ok = [record for record in records if not _failed(record[-1])]
    has_hi = any(record[0].priority for record in ok)
    table = []
    for begin, end in blocks:
        inside = [(request, done - due) for request, due, _s, done, _o in ok if begin <= due < end]
        latencies = [value for _r, value in inside]
        row = {f"p{q}_ms": percentile(latencies, q) * 1e3 for q in (50, 95, 99)}
        # A workload without a priority class reports its overall p95.
        hi = [value for request, value in inside if request.priority] if has_hi else latencies
        row["hi_p95_ms"] = percentile(hi, 95) * 1e3
        table.append(row)

    def over_blocks(name):
        return mean([row[name] for row in table])

    within = sum(1 for _r, due, _s, done, _o in ok if (done - due) * 1e3 <= SLO_MS)
    # Over distinct keys, so the hot keys' share does not weigh in.
    fidelity = [references[key].scores["fidelity"] for key in {r[0].key for r in ok}]
    # The serving path must deliver what an in-process compile of the same
    # key delivers; the share at least as good as that reference is 1.0 for
    # a correct run, and the output checks fail the run otherwise.
    as_good = [
        outcome.scores["fidelity"] >= references[request.key].scores["fidelity"] - 1e-9
        for request, *_x, outcome in ok
    ]
    metrics = {
        "setup_s": setup_s,
        "throughput_per_s": len(ok) / elapsed,
        "latency_p50_ms": over_blocks("p50_ms"),
        "latency_p95_ms": over_blocks("p95_ms"),
        "max_rate_within_slo_rps": within / elapsed,
        "hi_priority_p95_ms": over_blocks("hi_p95_ms"),
        "mean_expected_fidelity": mean(fidelity),
        "rl_match_share": mean(as_good),
    }
    return metrics, [{name: round(value, 2) for name, value in row.items()} for row in table]


def _trace_overhead(records) -> dict:
    ok = [record for record in records if not _failed(record[-1])]
    traced = mean(done - due for request, due, _s, done, _o in ok if request.trace_id)
    plain = mean(done - due for request, due, _s, done, _o in ok if not request.trace_id)
    return {
        "trace.overhead_ms": (traced - plain) * 1e3,
        "trace.overhead_share": (traced - plain) / plain,
    }


def _service_deltas(before: dict, after: dict) -> dict:
    lookups = after["submitted"] - before["submitted"]
    base = max(1, lookups)

    def scale_events(stats):
        return stats["autoscaler"]["scale_ups"] + stats["autoscaler"]["scale_downs"]

    return {
        "service.cache_hit_rate": (after["cache_hits"] - before["cache_hits"]) / base,
        "service.cache_lookups": lookups,
        "service.cache_evictions": after["cache"]["evictions"] - before["cache"]["evictions"],
        "service.coalesced_share": (after["coalesced"] - before["coalesced"]) / base,
        "service.autoscale_events": scale_events(after) - scale_events(before),
    }


def _service_layers(trees: list[dict]) -> dict:
    """Per-request service self time, queue wait, lane execute and stage self times.

    A coalesced request's tree holds the owner's ``lane.execute`` span; that
    work is charged to the owner only.
    """
    own, wait, execute, stages = [], [], [], {}
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            if node["name"] != "service.request":
                stack.extend(node.get("children") or [])
                continue
            children = node.get("children") or []
            queue = sum(c["duration"] or 0.0 for c in children if c["name"] == "queue.wait")
            lanes = [] if (node.get("attrs") or {}).get("coalesced") else [
                c for c in children if c["name"] == "lane.execute"
            ]
            lane = sum(c["duration"] or 0.0 for c in lanes)
            own.append((node["duration"] or 0.0) - queue - lane)
            wait.append(queue)
            execute.append(lane)
            for subtree in lanes:
                self_times(subtree, stages)
    count = max(1, len(own))
    metrics = {
        f"pipeline.{name}.self_ms": total * 1e3 / count
        for name, total in stages.items()
        if name.startswith("stage.")
    }
    metrics.update({
        "service.self_ms": mean(own) * 1e3,
        "service.queue_wait_ms": mean(wait) * 1e3,
        "service.lane_execute_ms": mean(execute) * 1e3,
    })
    return metrics


def _outcome(records, problems) -> dict:
    return {
        "attempted": len(records),
        "failures": [f"{record[0].key}: {record[-1] if isinstance(record[-1], str) else record[-1].error}"
                     for record in records if _failed(record[-1])],
        "problems": problems,
    }


# -- gateway-hot -----------------------------------------------------------------------

GATEWAY_POOL_SEED = 101
GATEWAY_KEYS = 16
GATEWAY_BACKENDS = ("qiskit-o1", "qiskit-o3", "tket-o2")
GATEWAY_ZIPF = 1.0
#: offered rates (requests/s) of the steps, each held for an equal share of the run
GATEWAY_STEPS = (10, 20, 30, 40)
#: passes through the steps; each pass is one block of the latency medians
GATEWAY_CYCLES = 5
TENANTS = (
    Tenant("alpha", "alpha-key", rate=1000.0, burst=200, max_priority=HI_PRIORITY),
    Tenant("beta", "beta-key", rate=1000.0, burst=200, max_priority=HI_PRIORITY),
)


class _GatewayStack:
    """A compile service behind a gateway, with its key set compiled once."""

    def __init__(self, keys, circuits, slow_requests: int):
        self.service = repro.CompileService(max_workers=2)
        self.gateway = GatewayServer(
            self.service, tenants=list(TENANTS), sample_interval=0,
            slow_requests=slow_requests,
        )
        self.clients = [
            GatewayClient(self.gateway.url, api_key=tenant.key, timeout=OP_LIMIT_S)
            for tenant in TENANTS
        ]
        for key in keys:
            _family, _width, device, backend = key
            self.clients[0].compile(circuits[key], backend, device=device, timeout=OP_LIMIT_S)

    def send(self, client, request):
        _family, _width, device, backend = request.key
        try:
            return client.compile(
                request.circuit, backend, device=device, priority=request.priority,
                timeout=OP_LIMIT_S, trace_id=request.trace_id,
            )
        except Exception as exc:  # noqa: BLE001 - a failed request is counted, not fatal
            return f"{type(exc).__name__}: {exc}"

    def close(self):
        self.gateway.close()
        # Every request has finished or timed out; a stuck worker must not
        # hold the run, so nothing is drained.
        self.service.shutdown(drain=False)


def _gateway_schedules(rng, keys, circuits, start, seconds, trace):
    """Two senders' schedules over ``GATEWAY_CYCLES`` passes of the rate steps.

    Returns (schedules, steps as (rate, begin, end), one block per cycle).
    """
    weights = zipf_weights(len(keys), GATEWAY_ZIPF)
    schedules, steps = ([], []), []
    step_len = seconds / (len(GATEWAY_STEPS) * GATEWAY_CYCLES)
    for index, rate in enumerate(GATEWAY_STEPS * GATEWAY_CYCLES):
        begin = start + index * step_len
        steps.append((rate, begin, begin + step_len))
        requests = _requests(rng, keys, circuits, weights, int(rate * step_len), trace)
        for n, request in enumerate(requests):
            schedules[n % 2].append((begin + n / rate, request))
    cycle = step_len * len(GATEWAY_STEPS)
    blocks = [(start + c * cycle, start + (c + 1) * cycle) for c in range(GATEWAY_CYCLES)]
    return schedules, steps, blocks


def _steps(records, steps) -> tuple[float, list[dict]]:
    """Latency at each offered rate, and the achieved rate of the highest passing one.

    A rate passes when its p99 meets the limit and every step at that rate
    keeps up: the last tenth of the step's requests also meets the limit,
    so a backlog that grows through a step fails it.  A failed request
    fails its rate.
    """
    best, table = 0.0, []
    for rate in GATEWAY_STEPS:
        latencies, served, busy, keeps_up, failed = [], 0, 0.0, True, False
        for step_rate, begin, end in steps:
            if step_rate != rate:
                continue
            rows = sorted(record[1:] for record in records if begin <= record[1] < end)
            if not rows:
                continue
            failed |= any(_failed(outcome) for *_x, outcome in rows)
            step = [done - due for due, _s, done, _o in rows]
            keeps_up &= percentile(step[-max(1, len(step) // 10):], 50) * 1e3 <= SLO_MS
            latencies.extend(step)
            served += len(rows)
            busy += max(done for _d, _s, done, _o in rows) - begin
        achieved = served / busy if busy else 0.0
        passed = served and not failed and keeps_up and percentile(latencies, 99) * 1e3 <= SLO_MS
        if passed:
            best = achieved
        table.append({"offered": rate, "achieved": round(achieved, 2), "passed": passed,
                      **{f"p{q}_ms": round(percentile(latencies, q) * 1e3, 2) for q in (50, 95, 99)}})
    return best, table


def run_gateway_hot(seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    keys = key_pool(GATEWAY_POOL_SEED, GATEWAY_KEYS, range(3, 5), GATEWAY_BACKENDS)
    circuits = {key: benchmark_circuit(key[0], key[1]) for key in keys}
    # A traced run keeps every request's span tree in the slow-request log.
    slow = 1 << 16 if trace else 32
    stack, setup_s = timed_setup(lambda: _GatewayStack(keys, circuits, slow), SETUP_REPEATS)
    try:
        before = stack.service.stats()
        limited = stack.gateway.counters()["rate_limited"]
        start = time.perf_counter() + 0.05
        schedules, steps, blocks = _gateway_schedules(rng, keys, circuits, start, seconds, trace)
        senders = [
            Sender(schedule, lambda request, client=client: stack.send(client, request))
            for schedule, client in zip(schedules, stack.clients)
        ]
        for sender in senders:
            sender.start()
        for sender in senders:
            sender.join(timeout=seconds + OP_LIMIT_S * len(sender.schedule))
        elapsed = time.perf_counter() - start
        after = stack.service.stats()
        limited = stack.gateway.counters()["rate_limited"] - limited
        logged = stack.clients[0].stats()["gateway"]["slow_requests"] if trace else []
    finally:
        stack.close()
    records = [record for sender in senders for record in sender.records]
    problems, references = _verify(records, circuits, codec=True)
    outcome = _outcome(records, problems)
    if not trace:
        outcome["end_to_end"], per_block = _end_to_end(records, elapsed, setup_s, references, blocks)
        best, per_rate = _steps(records, steps)
        outcome["end_to_end"]["max_rate_within_slo_rps"] = best
        outcome["info"] = {"per_rate": per_rate, "per_block": per_block}
        return outcome
    layers = _gateway_layers(records, logged)
    layers.update(_codec_costs(records, circuits, references))
    layers.update(_service_deltas(before, after))
    layers.update(_trace_overhead(records))
    layers["gateway.rate_limited"] = limited
    lateness = [value for sender in senders for value in sender.lateness]
    layers["loadgen.late_p99_ms"] = percentile(lateness, 99) * 1e3
    outcome["per_layer"] = layers
    return outcome


def _gateway_layers(records, logged) -> dict:
    """HTTP overhead and gateway self time from the slow-request log's trees.

    The log holds each finished request's ``gateway.request`` tree as
    pre-order rows; the client-observed time minus the root span is the HTTP
    hop (connection, handler, JSON and QASM codec on both sides).
    """
    entries = {entry["trace_id"]: entry for entry in logged}
    http, own, trees = [], [], []
    for request, _due, sent, done, outcome in records:
        entry = entries.get(request.trace_id)
        if entry is None or _failed(outcome):
            continue
        tree = _tree_from_rows(entry["breakdown"])
        trees.append(tree)
        http.append(done - sent - entry["seconds"])
        service = sum(c["duration"] or 0.0 for c in tree["children"] if c["name"] == "service.request")
        own.append(entry["seconds"] - service)
    layers = _service_layers(trees)
    layers["gateway.http_overhead_ms"] = mean(http) * 1e3
    layers["gateway.request_self_ms"] = mean(own) * 1e3
    return layers


def _tree_from_rows(rows: list[dict]) -> dict:
    """Rebuild a span tree from the slow-request log's pre-order rows."""
    root, stack = None, []
    for row in rows:
        node = {"name": row["name"], "duration": row["duration"], "children": []}
        while stack and stack[-1][0] >= row["depth"]:
            stack.pop()
        if stack:
            stack[-1][1]["children"].append(node)
        else:
            root = node
        stack.append((row["depth"], node))
    return root


def _codec_costs(records, circuits, references) -> dict:
    """Per-request codec cost on this mix: each key's payloads timed, weighted by use.

    These are the four conversions one gateway request makes: the client
    encodes the circuit, the server decodes it, the server encodes the
    result and the client decodes it.
    """
    uses = Counter(record[0].key for record in records if not _failed(record[-1]))
    totals = Counter()
    for key, count in uses.items():
        samples = {name: [] for name in ("to_qasm", "from_qasm", "to_dict", "from_dict")}
        for _ in range(3):
            start = time.perf_counter()
            text = to_qasm(circuits[key])
            samples["to_qasm"].append(time.perf_counter() - start)
            start = time.perf_counter()
            from_qasm(text)
            samples["from_qasm"].append(time.perf_counter() - start)
            start = time.perf_counter()
            payload = references[key].to_dict()
            samples["to_dict"].append(time.perf_counter() - start)
            start = time.perf_counter()
            CompilationResult.from_dict(payload)
            samples["from_dict"].append(time.perf_counter() - start)
        for name, values in samples.items():
            totals[name] += median_of(values) * count
    total = max(1, sum(uses.values()))
    return {
        "codec.to_qasm_ms": totals["to_qasm"] * 1e3 / total,
        "codec.from_qasm_ms": totals["from_qasm"] * 1e3 / total,
        "codec.result_to_dict_ms": totals["to_dict"] * 1e3 / total,
        "codec.result_from_dict_ms": totals["from_dict"] * 1e3 / total,
    }


# -- service-churn ---------------------------------------------------------------------

CHURN_POOL_SEED = 202
CHURN_KEYS = 48
CHURN_BACKENDS = ("qiskit-o1",)
CHURN_WIDTHS = (3,)
CHURN_CACHE = 16
CHURN_ZIPF = 1.2
CHURN_RATE = 35.0
#: share of the scheduled requests sent at priority HI_PRIORITY
CHURN_HI_SHARE = 0.5
#: every BURST_EVERY seconds BURST_KEYS cold keys are each requested
#: BURST_SIZE times at once: the copies coalesce, the keys queue for a lane
BURST_EVERY = 2.0
BURST_KEYS = 2
BURST_SIZE = 3
#: equal time slices of the run; latency percentiles are their medians
CHURN_BLOCKS = 5


class _ChurnStack:
    """A compile service with a small cache, warmed with the hottest keys."""

    def __init__(self, keys, circuits):
        self.service = repro.CompileService(max_workers=2, cache_size=CHURN_CACHE)
        futures = [
            self.service.submit(circuits[key], key[3], device=key[2])
            for key in keys[:CHURN_CACHE]
        ]
        for future in futures:
            future.result(timeout=OP_LIMIT_S)

    def close(self):
        # Every request has finished or timed out; a stuck worker must not
        # hold the run, so nothing is drained.
        self.service.shutdown(drain=False)


def _churn_schedule(rng, keys, circuits, start, seconds, trace):
    weights = zipf_weights(len(keys), CHURN_ZIPF)
    requests = _requests(
        rng, keys, circuits, weights, int(CHURN_RATE * seconds), trace, CHURN_HI_SHARE
    )
    schedule = [(start + n / CHURN_RATE, request) for n, request in enumerate(requests)]
    cold = keys[len(keys) // 2:]
    copies = itertools.count()
    for burst in range(int(seconds / BURST_EVERY)):
        due = start + (burst + 0.5) * BURST_EVERY
        for key in rng.sample(cold, BURST_KEYS):
            # Bursts are traced like the stream, every other copy, so the
            # traced and untraced halves carry the same share of them.
            schedule.extend(
                (due, Request(key, circuits[key], 0, new_trace_id() if trace and n % 2 else None))
                for n in itertools.islice(copies, BURST_SIZE)
            )
    schedule.sort(key=lambda item: item[0])
    return schedule


def _drive_service(service, schedule):
    """Submit on schedule from this thread; a done callback stamps completion.

    Returns ``(request, due, sent, done, outcome)`` records and the
    submitter's lateness at the sends it was idle for.
    """
    pending, lateness = [], []
    for due, request in schedule:
        now = time.perf_counter()
        if now < due:
            time.sleep(due - now)
            now = time.perf_counter()
            lateness.append(now - due)
        _family, _width, device, backend = request.key
        done = {}
        future = service.submit(
            request.circuit, backend, device=device, priority=request.priority,
            trace=Span("bench.request") if request.trace_id else None,
        )
        future.add_done_callback(lambda _f, done=done: done.setdefault("at", time.perf_counter()))
        pending.append((request, due, now, future, done))
    records = []
    for request, due, sent, future, done in pending:
        try:
            result = future.result(timeout=max(0.0, due + OP_LIMIT_S - time.perf_counter()))
        except Exception as exc:  # noqa: BLE001 - a timed-out request is counted, not fatal
            result = f"{type(exc).__name__}: {exc}"
        records.append((request, due, sent, done.get("at", due + OP_LIMIT_S), result))
    return records, lateness


def run_service_churn(seed: int, seconds: float, trace: bool) -> dict:
    rng = random.Random(seed)
    keys = key_pool(CHURN_POOL_SEED, CHURN_KEYS, CHURN_WIDTHS, CHURN_BACKENDS)
    circuits = {key: benchmark_circuit(key[0], key[1]) for key in keys}
    stack, setup_s = timed_setup(lambda: _ChurnStack(keys, circuits), SETUP_REPEATS)
    try:
        before = stack.service.stats()
        start = time.perf_counter() + 0.05
        schedule = _churn_schedule(rng, keys, circuits, start, seconds, trace)
        records, lateness = _drive_service(stack.service, schedule)
        elapsed = time.perf_counter() - start
        after = stack.service.stats()
    finally:
        stack.close()
    problems, references = _verify(records, circuits, codec=False)
    outcome = _outcome(records, problems)
    outcome["info"] = _service_deltas(before, after)
    if not trace:
        block = seconds / CHURN_BLOCKS
        blocks = [(start + b * block, start + (b + 1) * block) for b in range(CHURN_BLOCKS)]
        outcome["end_to_end"], outcome["info"]["per_block"] = _end_to_end(
            records, elapsed, setup_s, references, blocks
        )
        return outcome
    trees = [record[-1].trace for record in records
             if record[0].trace_id and not _failed(record[-1]) and record[-1].trace]
    layers = _service_layers(trees)
    layers.update(_service_deltas(before, after))
    layers.update(_trace_overhead(records))
    layers["loadgen.late_p99_ms"] = percentile(lateness, 99) * 1e3
    outcome["per_layer"] = layers
    return outcome

