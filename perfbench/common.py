"""Helpers shared by the workloads: statistics, output checks, span trees, load.

Nothing here imports ``repro`` at module level, so ``run.py`` can report a
missing source tree before any workload module is loaded.
"""

from __future__ import annotations

import platform
import resource
import statistics
import threading
import time

#: gate names every device accepts besides its native set
NON_UNITARY = frozenset({"barrier", "measure"})


class WallLimit(Exception):
    """One operation ran past the workload's per-operation wall limit."""


# -- statistics ------------------------------------------------------------------------


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0-100), linear interpolation; 0.0 when empty."""
    data = sorted(values)
    if not data:
        return 0.0
    pos = (len(data) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (pos - low)


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def median_of(values) -> float:
    return statistics.median(values)


def peak_rss_mb() -> float:
    """Peak resident set size of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def fingerprint() -> dict:
    """The machine facts a reader needs to compare two runs."""
    import os

    import numpy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def timed_setup(build, repeats: int):
    """Run ``build()`` ``repeats`` times; returns (last product, median seconds).

    Every product but the last is closed (if it has ``close``) before the next
    set-up starts, so the repeats measure a cold set-up each time.
    """
    durations = []
    product = None
    for index in range(repeats):
        start = time.perf_counter()
        product = build()
        durations.append(time.perf_counter() - start)
        if index < repeats - 1 and hasattr(product, "close"):
            product.close()
    return product, median_of(durations)


# -- output checks ---------------------------------------------------------------------


def check_output(result, circuit) -> list[str]:
    """Problems with one successful compile, judged from device data alone.

    Checks native gate names, that every two-qubit gate sits on a coupled pair
    and that the circuit fits the device width.  ``Device.is_executable`` is
    deliberately not used: it is part of the code under test.
    """
    device = result.device
    label = f"{circuit.name} via {result.backend}"
    if device is None:
        return [f"{label}: no device on a successful result"]
    native = set(device.gate_set.single_qubit) | set(device.gate_set.two_qubit) | NON_UNITARY
    edges = {frozenset(edge) for edge in device.coupling_map.edges}
    problems = []
    out = result.circuit
    if out.num_qubits > device.num_qubits:
        problems.append(f"{label}: {out.num_qubits} qubits on a {device.num_qubits}-qubit device")
    for instr in out:
        if instr.name not in native:
            problems.append(f"{label}: non-native gate {instr.name!r} on {device.name}")
            break
        qubits = instr.qubits
        if any(q >= device.num_qubits for q in qubits):
            problems.append(f"{label}: qubit {max(qubits)} outside {device.name}")
            break
        if instr.name not in NON_UNITARY and len(qubits) == 2 and frozenset(qubits) not in edges:
            problems.append(f"{label}: {instr.name} on uncoupled pair {qubits} of {device.name}")
            break
        if instr.name not in NON_UNITARY and len(qubits) > 2:
            problems.append(f"{label}: {len(qubits)}-qubit gate {instr.name!r} left in output")
            break
    return problems


def two_qubit_gates(circuit) -> int:
    return sum(1 for instr in circuit if instr.name not in NON_UNITARY and len(instr.qubits) >= 2)


def same_result(served, reference) -> bool:
    """Served and reference results carry the same circuit and the same scores."""
    return served.circuit == reference.circuit and served.scores == reference.scores


# -- span trees ------------------------------------------------------------------------


def self_times(tree: dict, into: dict) -> dict:
    """Add each span's self time (seconds) to ``into[name]``, for a tree dict.

    A span's self time is its duration minus the part its children cover.
    Grafted spans shared between trees (a coalesced owner's ``lane.execute``)
    are counted in every tree that holds them.
    """
    stack = [tree]
    while stack:
        node = stack.pop()
        children = node.get("children") or []
        covered = sum(child.get("duration") or 0.0 for child in children)
        own = max(0.0, (node.get("duration") or 0.0) - covered)
        into[node["name"]] = into.get(node["name"], 0.0) + own
        stack.extend(children)
    return into


# -- load generation -------------------------------------------------------------------


class Sender(threading.Thread):
    """One open-loop sender thread: sends each item when it is due.

    ``schedule`` holds ``(due, item)`` pairs with absolute ``perf_counter``
    due times.  ``send(item)`` blocks until the reply is in.  Latency counts
    from the due time, so a stall also charges the requests queued behind it.
    Lateness is the generator's own error: how late a send left when the
    sender was idle at its due time.
    """

    def __init__(self, schedule, send):
        super().__init__(daemon=True)
        self.schedule = schedule
        self.send = send
        self.records: list[tuple] = []  # (item, due, sent, done, outcome)
        self.lateness: list[float] = []

    def run(self) -> None:
        for due, item in self.schedule:
            now = time.perf_counter()
            if now < due:
                time.sleep(due - now)
                now = time.perf_counter()
                self.lateness.append(now - due)
            outcome = self.send(item)
            self.records.append((item, due, now, time.perf_counter(), outcome))
