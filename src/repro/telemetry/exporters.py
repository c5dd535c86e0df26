"""Exporters: Prometheus text exposition, JSON run reports, human tables.

Three consumers of one :class:`~repro.telemetry.MetricsRegistry`:

* :func:`to_prometheus` — the text exposition format scrapers ingest
  (counters, gauges, and cumulative ``_bucket``/``_sum``/``_count``
  histogram series). :func:`parse_prometheus` is the matching reader,
  used by the round-trip tests and by anyone post-processing saved
  exposition files.
* :func:`build_run_report` / :func:`validate_run_report` — a
  schema-versioned JSON document (metrics + span tree + run metadata)
  written next to ``bench_results``; ``tea-repro stats --report`` replays
  one.
* :func:`format_stats_table` — the ``--stats`` human rendering.

Validation is hand-rolled (no jsonschema dependency): a report either
validates to an empty error list or names every violation.
"""

from __future__ import annotations

import json
import math
import re
from typing import Dict, List, Optional, Sequence

from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.profile import Span

#: Version stamp every JSON run report carries; bump on layout changes.
REPORT_SCHEMA = "tea-repro/run-report/v1"

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str, prefix: str = "tea") -> str:
    # An info gauge may carry literal labels (``kernel.backend{name="c"}``):
    # only the part before the brace is a metric name to sanitise.
    base, brace, labels = name.partition("{")
    flat = _NAME_RE.sub("_", base) + brace + labels
    return f"{prefix}_{flat}" if prefix else flat


class _NameTable:
    """Collision-proof sanitized names: ``cache.hits`` and ``cache hits``
    both flatten to ``tea_cache_hits``, so the second (and later) takers
    get a deterministic ``_2``/``_3`` suffix instead of silently merging
    two different metrics into one exposition series."""

    def __init__(self, prefix: str):
        self.prefix = prefix
        self._taken: Dict[str, int] = {}

    def assign(self, raw_name: str) -> str:
        base = _prom_name(raw_name, self.prefix)
        n = self._taken.get(base)
        if n is None:
            self._taken[base] = 1
            return base
        while True:
            n += 1
            candidate = f"{base}_{n}"
            if candidate not in self._taken:
                break
        self._taken[base] = n
        self._taken[candidate] = 1
        return candidate


def _prom_value(value) -> str:
    # Prometheus text format spells special values +Inf / -Inf / NaN
    # (repr would give 'inf', which scrapers reject).
    if value is None:
        return "NaN"
    if isinstance(value, float):
        if math.isinf(value):
            return "+Inf" if value > 0 else "-Inf"
        if math.isnan(value):
            return "NaN"
        return repr(value)
    return str(value)


# ---------------------------------------------------------------------------
# Prometheus text exposition
# ---------------------------------------------------------------------------

def to_prometheus(registry: MetricsRegistry, prefix: str = "tea") -> str:
    """Render the registry in Prometheus text exposition format."""
    lines: List[str] = []
    names = _NameTable(prefix)
    for c in registry.counters():
        name = names.assign(c.name)
        if c.help:
            lines.append(f"# HELP {name} {c.help}")
        lines.append(f"# TYPE {name} counter")
        lines.append(f"{name} {_prom_value(c.value)}")
    for g in registry.gauges():
        name = names.assign(g.name)
        family = name.partition("{")[0]
        if g.help:
            lines.append(f"# HELP {family} {g.help}")
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{name} {_prom_value(g.value)}")
    for h in registry.histograms():
        name = names.assign(h.name)
        if h.help:
            lines.append(f"# HELP {name} {h.help}")
        lines.append(f"# TYPE {name} histogram")
        cumulative = h.zero_count
        for bound, count in zip(h.bucket_bounds(), h.counts[:-1]):
            cumulative += count
            lines.append(f'{name}_bucket{{le="{_prom_value(float(bound))}"}} {cumulative}')
        lines.append(f'{name}_bucket{{le="+Inf"}} {h.count}')
        lines.append(f"{name}_sum {_prom_value(h.total)}")
        lines.append(f"{name}_count {h.count}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> Dict[str, dict]:
    """Parse text exposition back into ``{metric: {...}}``.

    Counters and gauges map to ``{"type": ..., "value": ...}``;
    histograms to ``{"type": "histogram", "buckets": {le: cumulative},
    "sum": ..., "count": ...}``. Supports exactly what
    :func:`to_prometheus` emits (labels: ``le``, and an info gauge's
    literal ones, which stay part of its key).
    """
    out: Dict[str, dict] = {}
    types: Dict[str, str] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(None, 3)
            types[name] = kind
            continue
        if line.startswith("#"):
            continue
        key, value = line.rsplit(None, 1)
        number = float(value)
        m = re.match(r'^(\w+)_bucket\{le="([^"]+)"\}$', key)
        if m:
            base, le = m.group(1), m.group(2)
            hist = out.setdefault(base, {"type": "histogram", "buckets": {}})
            hist["buckets"][le] = number
            continue
        if key.endswith("_sum") and key[:-4] in types and types[key[:-4]] == "histogram":
            out.setdefault(key[:-4], {"type": "histogram", "buckets": {}})["sum"] = number
            continue
        if key.endswith("_count") and key[:-6] in types and types[key[:-6]] == "histogram":
            out.setdefault(key[:-6], {"type": "histogram", "buckets": {}})["count"] = number
            continue
        family = key.partition("{")[0]
        out[key] = {"type": types.get(family, "untyped"), "value": number}
    return out


# ---------------------------------------------------------------------------
# JSON run report
# ---------------------------------------------------------------------------

def build_run_report(
    registry: MetricsRegistry,
    spans: Sequence[Span] = (),
    meta: Optional[dict] = None,
) -> dict:
    """Assemble the schema-versioned JSON run report document; span
    times are relative to the earliest root in ``spans``."""
    doc = {"schema": REPORT_SCHEMA, "meta": dict(meta or {})}
    doc.update(registry.snapshot())
    origin = min((span.start for span in spans), default=0.0)
    doc["spans"] = [span.to_dict(origin) for span in spans]
    return doc


def validate_run_report(doc) -> List[str]:
    """Structural validation; returns a list of problems (empty = valid)."""
    errors: List[str] = []
    if not isinstance(doc, dict):
        return ["report is not a JSON object"]
    if doc.get("schema") != REPORT_SCHEMA:
        errors.append(f"schema is {doc.get('schema')!r}, expected {REPORT_SCHEMA!r}")
    for section, kind in (("meta", dict), ("counters", dict), ("gauges", dict),
                          ("histograms", dict), ("spans", list)):
        if not isinstance(doc.get(section), kind):
            errors.append(f"missing or mistyped section {section!r}")
    if errors:
        return errors
    for name, value in doc["counters"].items():
        if not isinstance(value, (int, float)):
            errors.append(f"counter {name!r} is not numeric")
    for name, value in doc["gauges"].items():
        if value is not None and not isinstance(value, (int, float)):
            errors.append(f"gauge {name!r} is not numeric or null")
    for name, hist in doc["histograms"].items():
        if not isinstance(hist, dict):
            errors.append(f"histogram {name!r} is not an object")
            continue
        missing = {"count", "sum", "bounds", "counts"} - set(hist)
        if missing:
            errors.append(f"histogram {name!r} missing fields {sorted(missing)}")
            continue
        if len(hist["counts"]) != len(hist["bounds"]) + 1:
            errors.append(f"histogram {name!r}: counts/bounds length mismatch")
        bucket_total = sum(hist["counts"]) + hist.get("zero_count", 0)
        if bucket_total != hist["count"]:
            errors.append(f"histogram {name!r}: bucket counts do not sum to count")

    def check_span(span, path: str) -> None:
        if not isinstance(span, dict):
            errors.append(f"span {path} is not an object")
            return
        for key in ("name", "start", "duration"):
            if key not in span:
                errors.append(f"span {path} missing {key!r}")
        for i, child in enumerate(span.get("children", [])):
            check_span(child, f"{path}/{span.get('name', '?')}[{i}]")

    for i, span in enumerate(doc["spans"]):
        check_span(span, f"roots[{i}]")
    return errors


def write_run_report(path, doc: dict) -> dict:
    """Validate and write a built run report document; returns it.

    Build the document first with :func:`build_run_report` or
    ``EngineResult.run_report()``.
    """
    problems = validate_run_report(doc)
    if problems:  # pragma: no cover - internal consistency guard
        raise ValueError(f"refusing to write invalid report: {problems}")
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return doc


def load_run_report(path) -> dict:
    """Read and validate a saved run report; raises on schema violations."""
    with open(path) as fh:
        doc = json.load(fh)
    problems = validate_run_report(doc)
    if problems:
        raise ValueError(f"{path}: invalid run report: {'; '.join(problems)}")
    return doc


# ---------------------------------------------------------------------------
# Human table
# ---------------------------------------------------------------------------

def _fmt_num(value) -> str:
    if value is None:
        return "-"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def _span_lines(span: dict, depth: int, lines: List[str]) -> None:
    label = "  " * depth + span["name"]
    attrs = span.get("attributes") or {}
    extra = (" " + " ".join(f"{k}={_fmt_num(v)}" for k, v in sorted(attrs.items()))
             if attrs else "")
    lines.append(f"  {label:<38} {span['duration'] * 1e3:10.3f} ms{extra}")
    for child in span.get("children", []):
        _span_lines(child, depth + 1, lines)


def format_stats_table(doc: dict) -> str:
    """Render one run report as the ``--stats`` human table.

    Display is where rounding happens — the report itself keeps full
    precision (see the ``CacheStats`` satellite note in
    ``docs/observability.md``).
    """
    lines: List[str] = []
    meta = doc.get("meta", {})
    if meta:
        lines.append("run: " + "  ".join(
            f"{k}={v}" for k, v in sorted(meta.items())))
    counters = doc.get("counters", {})
    if counters:
        lines.append("counters:")
        width = max(len(n) for n in counters)
        for name in sorted(counters):
            lines.append(f"  {name:<{width}}  {_fmt_num(counters[name])}")
    gauges = doc.get("gauges", {})
    if gauges:
        lines.append("gauges:")
        width = max(len(n) for n in gauges)
        for name in sorted(gauges):
            lines.append(f"  {name:<{width}}  {_fmt_num(gauges[name])}")
    histograms = doc.get("histograms", {})
    if histograms:
        lines.append("histograms:")
        width = max(len(n) for n in histograms)
        for name in sorted(histograms):
            h = histograms[name]
            mean = h["sum"] / h["count"] if h["count"] else 0.0
            lines.append(
                f"  {name:<{width}}  count={h['count']}  mean={_fmt_num(mean)}  "
                f"min={_fmt_num(h.get('min'))}  max={_fmt_num(h.get('max'))}"
            )
    spans = doc.get("spans", [])
    if spans:
        lines.append("spans:")
        for root in spans:
            _span_lines(root, 0, lines)
    return "\n".join(lines)
