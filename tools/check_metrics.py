#!/usr/bin/env python
"""CI lint: the Prometheus exposition must be well-formed.

Renders a fully-populated ``/metrics`` page — the real
``CompileService.stats()`` taken after one compile (so the lint covers the
stats shape that actually ships, span histograms included) plus gateway
counters, tenant stats, a latency window with observations across several
buckets, and a health payload — parses it line by line, and fails if

* a metric family is declared twice (duplicate ``HELP``/``TYPE``) or has a
  ``TYPE`` without ``HELP`` (or vice versa),
* a ``TYPE`` names something other than ``counter`` / ``gauge`` /
  ``histogram`` / ``summary``,
* a family name ends in ``_total`` but is not a counter, or is a counter and
  does not end in ``_total``,
* a ``_bucket`` / ``_sum`` / ``_count`` sample does not belong to a declared
  histogram family (or a histogram family is missing one of the three),
* a sample line does not belong to any declared family, or its value does
  not parse as a number,
* a histogram's ``le`` buckets are not cumulative (non-decreasing) or the
  ``+Inf`` bucket disagrees with ``_count``.

Usage: ``python tools/check_metrics.py`` (exit code 1 on violations).
"""

from __future__ import annotations

import math
import re
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.bench import benchmark_circuit  # noqa: E402
from repro.gateway.metrics import LatencyWindow, render_prometheus  # noqa: E402
from repro.service import CompileService  # noqa: E402

_VALID_TYPES = {"counter", "gauge", "histogram", "summary"}
_SAMPLE_RE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)(?P<labels>\{[^}]*\})?\s+(?P<value>\S+)$"
)
_LABEL_RE = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def exposition() -> str:
    """Render a ``/metrics`` page exercising every family the gateway emits."""
    latency = LatencyWindow(window=64)
    for label, values in {
        "tenant:alice": [0.003, 0.02, 0.09, 0.4, 1.7, 12.0],
        "priority:0": [0.00005, 0.05, 0.05, 0.3],
    }.items():
        for value in values:
            latency.observe(label, value)
    with CompileService(max_workers=1) as service:
        service.submit(
            benchmark_circuit("ghz", 3), "qiskit-o1", device="ibmq_washington"
        ).result(timeout=120)
        service_stats = service.stats()
    if not service_stats["spans"]:
        raise SystemExit("metrics lint: one compile recorded no span histograms")
    return render_prometheus(
        service_stats,
        gateway_counters={"requests": 14, "errors": 1, "rate_limited": 2},
        tenant_stats={
            "alice": {"served": 9, "rate_limited": 1},
            "bob": {"served": 3, "rate_limited": 1},
        },
        latency=latency,
        health={"status": "ok"},
    )


def _family_of(sample_name: str, families: dict) -> "str | None":
    """The declared family a sample belongs to, honouring histogram children."""
    if sample_name in families:
        return sample_name
    for suffix in ("_bucket", "_sum", "_count"):
        if sample_name.endswith(suffix):
            base = sample_name[: -len(suffix)]
            if base in families:
                return base
    return None


def check(text: str) -> list[str]:
    errors: list[str] = []
    families: dict[str, dict] = {}  # name -> {"help": bool, "type": str | None}
    samples: list[tuple[str, dict, float]] = []

    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        if line.startswith("# HELP "):
            name = line.split()[2]
            entry = families.setdefault(name, {"help": False, "type": None})
            if entry["help"]:
                errors.append(f"line {lineno}: duplicate HELP for {name}")
            entry["help"] = True
            continue
        if line.startswith("# TYPE "):
            parts = line.split()
            name, kind = parts[2], parts[3]
            entry = families.setdefault(name, {"help": False, "type": None})
            if entry["type"] is not None:
                errors.append(f"line {lineno}: duplicate TYPE for {name}")
            if kind not in _VALID_TYPES:
                errors.append(f"line {lineno}: unknown TYPE {kind!r} for {name}")
            entry["type"] = kind
            continue
        if line.startswith("#"):
            continue
        match = _SAMPLE_RE.match(line)
        if not match:
            errors.append(f"line {lineno}: unparseable sample line: {line!r}")
            continue
        try:
            value = float(match.group("value"))
        except ValueError:
            errors.append(f"line {lineno}: non-numeric value in: {line!r}")
            continue
        labels = dict(_LABEL_RE.findall(match.group("labels") or ""))
        samples.append((match.group("name"), labels, value))

    for name, entry in sorted(families.items()):
        if not entry["help"]:
            errors.append(f"{name}: TYPE declared without HELP")
        if entry["type"] is None:
            errors.append(f"{name}: HELP declared without TYPE")
            continue
        if name.endswith("_total") and entry["type"] != "counter":
            errors.append(f"{name}: ends in _total but TYPE is {entry['type']}")
        if entry["type"] == "counter" and not name.endswith("_total"):
            errors.append(f"{name}: counter families must end in _total")

    seen_families: set[str] = set()
    for name, labels, _value in samples:
        family = _family_of(name, families)
        if family is None:
            errors.append(f"{name}: sample does not belong to any declared family")
            continue
        seen_families.add(family)
        kind = families[family]["type"]
        if name != family and kind != "histogram":
            errors.append(
                f"{name}: histogram-style child of {family}, whose TYPE is {kind}"
            )
        if name == family and kind == "histogram":
            errors.append(f"{name}: bare sample for histogram family (needs a suffix)")

    for name, entry in sorted(families.items()):
        if name not in seen_families:
            errors.append(f"{name}: family declared but has no samples")
        if entry["type"] != "histogram":
            continue
        # Group this histogram's children by label set (minus `le`).
        by_series: dict[tuple, dict] = {}
        for sample_name, labels, value in samples:
            if _family_of(sample_name, families) != name:
                continue
            key = tuple(sorted((k, v) for k, v in labels.items() if k != "le"))
            series = by_series.setdefault(key, {"buckets": [], "sum": None, "count": None})
            if sample_name.endswith("_bucket"):
                le = labels.get("le")
                if le is None:
                    errors.append(f"{name}: _bucket sample without an le label")
                    continue
                bound = math.inf if le == "+Inf" else float(le)
                series["buckets"].append((bound, value))
            elif sample_name.endswith("_sum"):
                series["sum"] = value
            elif sample_name.endswith("_count"):
                series["count"] = value
        for key, series in sorted(by_series.items()):
            where = f"{name}{{{', '.join(f'{k}={v}' for k, v in key)}}}"
            if not series["buckets"]:
                errors.append(f"{where}: histogram series without _bucket samples")
                continue
            if series["sum"] is None or series["count"] is None:
                errors.append(f"{where}: histogram series missing _sum or _count")
                continue
            buckets = sorted(series["buckets"])
            if buckets[-1][0] != math.inf:
                errors.append(f"{where}: histogram series missing the +Inf bucket")
                continue
            counts = [count for _bound, count in buckets]
            if any(b > a for a, b in zip(counts[1:], counts)):
                errors.append(f"{where}: bucket counts are not cumulative")
            if buckets[-1][1] != series["count"]:
                errors.append(
                    f"{where}: +Inf bucket ({buckets[-1][1]:g}) disagrees with "
                    f"_count ({series['count']:g})"
                )
    return errors


def main() -> int:
    text = exposition()
    errors = check(text)
    if errors:
        print(f"metrics lint: {len(errors)} violation(s)")
        for error in errors:
            print(f"  - {error}")
        return 1
    families = len(re.findall(r"^# TYPE ", text, flags=re.M))
    print(f"metrics lint: {families} families well-formed (names, types, histograms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
