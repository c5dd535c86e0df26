"""``repro compare``: several engines on one graph, one table.

:func:`run_engines` measures one :class:`ExperimentRow` per engine
factory on the same graph, spec and workload; :func:`format_rows`
renders the rows as the fixed-width table the CLI prints (a handheld
Table 4 cell). The paper-figure benchmarks under ``benchmarks/`` build
on the same three.
"""

from __future__ import annotations

import math
import os
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence

from repro.engines.base import Engine, EngineResult, Workload
from repro.exceptions import SimulatedOOM
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import RngLike
from repro.telemetry import format_bytes, write_run_report
from repro.walks.spec import WalkSpec

EngineFactory = Callable[[TemporalGraph, WalkSpec], Engine]


@dataclass
class ExperimentRow:
    """One measured cell of a paper table/figure."""

    dataset: str
    engine: str
    app: str
    total_seconds: float = float("nan")
    prepare_seconds: float = float("nan")
    walk_seconds: float = float("nan")
    edges_per_step: float = float("nan")
    steps: int = 0
    memory_bytes: int = 0
    io_blocks: int = 0
    oom: bool = False

    @classmethod
    def from_result(cls, dataset: str, result: EngineResult) -> "ExperimentRow":
        return cls(
            dataset=dataset,
            engine=result.engine,
            app=result.spec.split(",")[0],
            total_seconds=result.total_seconds,
            prepare_seconds=result.prepare_seconds,
            walk_seconds=result.walk_seconds,
            edges_per_step=result.counters.edges_per_step,
            steps=result.total_steps,
            memory_bytes=result.memory.total,
            io_blocks=result.counters.io_blocks,
        )

    @classmethod
    def oom_row(cls, dataset: str, engine: str, app: str) -> "ExperimentRow":
        return cls(dataset=dataset, engine=engine, app=app, oom=True)


def run_engines(
    graph: TemporalGraph,
    spec: WalkSpec,
    engines: Dict[str, EngineFactory],
    workload: Workload,
    seed: RngLike = 0,
    dataset: str = "?",
    telemetry_dir=None,
) -> List[ExperimentRow]:
    """Run every engine factory on the same graph/spec/workload.

    A factory raising :class:`SimulatedOOM` during preparation yields an
    OOM row (the Figure 12 convention) instead of aborting the sweep.

    ``telemetry_dir``, when given, receives one schema-versioned JSON
    run report per engine (``<dataset>_<label>.json``).
    """
    rows: List[ExperimentRow] = []
    for label, factory in engines.items():
        try:
            engine = factory(graph, spec)
            result = engine.run(workload, seed=seed, record_paths=False)
        except SimulatedOOM:
            rows.append(ExperimentRow.oom_row(dataset, label, spec.name))
            continue
        row = ExperimentRow.from_result(dataset, result)
        row.engine = label  # prefer the sweep's label over the engine name
        rows.append(row)
        if telemetry_dir is not None:
            os.makedirs(telemetry_dir, exist_ok=True)
            slug = re.sub(r"[^A-Za-z0-9_.-]", "-", f"{dataset}_{label}")
            path = os.path.join(telemetry_dir, f"{slug}.json")
            write_run_report(path, result.run_report(meta={"dataset": dataset}))
    return rows


def format_value(value, digits: int = 3) -> str:
    """One table cell: floats to ``digits`` significant digits, NaN as OOM."""
    if isinstance(value, float) and math.isnan(value):
        return "OOM"
    if isinstance(value, float):
        return f"{value:.{digits}g}"
    return str(value)


def format_table(table: Sequence[Sequence[str]], title: str = "") -> str:
    """Left-aligned fixed-width columns; ``table[0]`` is the header row."""
    widths = [max(len(r[i]) for r in table) for i in range(len(table[0]))]
    lines = [title] if title else []
    for i, row in enumerate(table):
        lines.append("  ".join(cell.ljust(widths[j]) for j, cell in enumerate(row)))
        if i == 0:
            lines.append("  ".join("-" * w for w in widths))
    return "\n".join(lines)


def format_rows(
    rows: Sequence[ExperimentRow],
    columns: Sequence[str] = (
        "dataset",
        "engine",
        "app",
        "total_seconds",
        "edges_per_step",
        "memory_bytes",
    ),
    title: str = "",
) -> str:
    """Fixed-width table of the selected row fields."""
    table: List[List[str]] = [list(columns)]
    for row in rows:
        rendered = []
        for col in columns:
            if row.oom and col not in ("dataset", "engine", "app"):
                rendered.append("OOM")
                continue
            value = getattr(row, col)
            rendered.append(format_bytes(value) if col == "memory_bytes"
                            else format_value(value))
        table.append(rendered)
    return format_table(table, title)
