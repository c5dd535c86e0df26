"""Unified telemetry: metrics, spans, profiler, events, exporters.

One layer every engine, sampler, cache, and streaming batch reports
into (see ``docs/observability.md`` for the metric catalogue, span
taxonomy, profiler phases, and event-log schema):

* :class:`MetricsRegistry` — named counters, gauges, log-scale
  histograms; cheap enough for per-step use, mergeable across workers;
* :class:`PhaseProfiler` (:mod:`repro.telemetry.profile`) — the one
  phase recorder: every run phase, :class:`Span` and profile row comes
  from its one frame stack (1-in-N walk sampling, self-timed overhead,
  collapsed-stack / phase-table output); :data:`NULL_PROFILER` is the
  one off switch;
* :class:`EventLog` (:mod:`repro.telemetry.events`) — structured JSONL
  timeline with a per-run ``run_id`` propagated into pool workers;
* :mod:`repro.telemetry.clock` — the one sanctioned time source for
  all of ``repro`` (enforced by ``tools/lint_clocks.py``);
* :class:`MemoryReport` — byte accounting;
* exporters — Prometheus text exposition, schema-versioned JSON run
  reports, and the ``--stats`` human table.
"""

from repro.telemetry.registry import (
    BYTES_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    LATENCY_BUCKETS,
    MetricsRegistry,
)
from repro.telemetry.events import EventLog, new_run_id
from repro.telemetry.memory import MemoryReport, format_bytes
from repro.telemetry.profile import NULL_PROFILER, NULL_SPAN, PhaseProfiler, Span
from repro.telemetry.exporters import (
    REPORT_SCHEMA,
    build_run_report,
    format_stats_table,
    load_run_report,
    parse_prometheus,
    to_prometheus,
    validate_run_report,
    write_run_report,
)

__all__ = [
    "BYTES_BUCKETS",
    "Counter",
    "EventLog",
    "Gauge",
    "Histogram",
    "LATENCY_BUCKETS",
    "MemoryReport",
    "MetricsRegistry",
    "NULL_PROFILER",
    "NULL_SPAN",
    "PhaseProfiler",
    "REPORT_SCHEMA",
    "Span",
    "build_run_report",
    "format_bytes",
    "format_stats_table",
    "load_run_report",
    "new_run_id",
    "parse_prometheus",
    "to_prometheus",
    "validate_run_report",
    "write_run_report",
]
