"""Shared benchmark configuration.

Every experiment writes its rendered table both to stdout (visible with
``pytest benchmarks/ --benchmark-only -s``) and to
``bench_results/<experiment>.txt`` so EXPERIMENTS.md can reference the
exact measured artifacts.

Environment knobs:

``REPRO_BENCH_SCALE``  — dataset scale multiplier (default 1.0; raise for
                         sturdier numbers, lower for a quick pass).
``REPRO_BENCH_R``      — walks per vertex for the runtime experiments
                         (default 2; the paper uses R=1 on graphs 1000×
                         larger, so a few sweeps here keep the walk phase
                         meaningful relative to preprocessing).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Mapping

import pytest

from repro.benchhistory import append_record, make_record
from repro.compare import format_table, format_value
from repro.graph.datasets import EVALUATION_DATASETS, load_dataset

BENCH_SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
BENCH_R = int(os.environ.get("REPRO_BENCH_R", "2"))
# The exponential decay constant used by the runtime experiments. Smaller
# values sharpen the weight skew (the regime the paper's analysis is
# about): rejection trial counts grow while TEA's hybrid sampling cost
# stays flat.
BENCH_EXP_SCALE = 6.0

RESULTS_DIR = Path(__file__).resolve().parent.parent / "bench_results"


@pytest.fixture(scope="session")
def datasets():
    """All four Table 3 analogues, generated once per session."""
    return {
        name: load_dataset(name, seed=0, scale=BENCH_SCALE)
        for name in EVALUATION_DATASETS
    }


def format_series(
    series: Mapping[str, Mapping[str, float]],
    x_label: str = "x",
    title: str = "",
    digits: int = 3,
) -> str:
    """A figure-style table: one column per named series, one row per x.

    ``series`` maps series name → {x: y}; x values are unioned and sorted.
    """
    xs = sorted({x for ys in series.values() for x in ys}, key=str)
    table = [[x_label] + list(series)]
    for x in xs:
        table.append([str(x)] + [
            "-" if ys.get(x) is None else format_value(float(ys[x]), digits)
            for ys in series.values()
        ])
    return format_table(table, title)


def write_result(name: str, text: str) -> None:
    """Print an experiment table and persist it under bench_results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(f"\n===== {name} =====\n{text}")


def write_json_result(name: str, payload: dict) -> Path:
    """Persist a machine-readable experiment artifact under bench_results/.

    JSON is the normal form: ``repro bench compare`` and external
    tooling consume these, while ``write_result`` keeps the
    human-readable table alongside.
    """
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"{name}.json"
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def record_history(bench: str, metrics: dict, **meta) -> None:
    """Append one normalized record to ``bench_results/history/``.

    Swallows nothing: a malformed metric dict fails the bench (loudly)
    rather than silently skipping the history append.
    """
    append_record(
        make_record(bench, metrics, meta=meta or None),
        history_dir=RESULTS_DIR / "history",
    )
