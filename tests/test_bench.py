"""`repro compare`'s runner rows and the benchmarks' table formatting."""

import math

from benchmarks.conftest import format_series
from repro.compare import ExperimentRow, format_rows, run_engines
from repro.engines import GraphWalkerEngine, TeaEngine, Workload
from repro.walks.apps import unbiased_walk


class TestRunEngines:
    def test_rows_produced(self, small_graph):
        rows = run_engines(
            small_graph,
            unbiased_walk(),
            {
                "tea": lambda g, s: TeaEngine(g, s),
                "graphwalker": lambda g, s: GraphWalkerEngine(g, s),
            },
            Workload(max_walks=10, max_length=5),
            dataset="small",
        )
        assert [r.engine for r in rows] == ["tea", "graphwalker"]
        assert all(r.dataset == "small" for r in rows)
        assert all(r.steps > 0 for r in rows)

    def test_oom_row(self, medium_graph):
        rows = run_engines(
            medium_graph,
            unbiased_walk(),
            {
                "alias": lambda g, s: TeaEngine(
                    g, s, structure="alias", alias_budget_bytes=1
                )
            },
            Workload(max_walks=2, max_length=2),
            dataset="m",
        )
        assert rows[0].oom
        assert math.isnan(rows[0].total_seconds)


class TestReport:
    def test_format_rows_renders_oom(self):
        rows = [
            ExperimentRow("d", "tea", "a", total_seconds=1.234, edges_per_step=5.5,
                          memory_bytes=2048),
            ExperimentRow("d", "alias", "a", oom=True),
        ]
        text = format_rows(rows, title="demo")
        assert "demo" in text
        assert "OOM" in text
        assert "2.00 KiB" in text

    def test_format_series(self):
        text = format_series(
            {"tea": {1: 0.5, 16: 0.1}, "baseline": {1: 5.0, 16: 4.0}},
            x_label="threads",
            title="scaling",
        )
        assert "threads" in text
        assert "tea" in text and "baseline" in text
        lines = text.splitlines()
        assert len(lines) == 2 + 1 + 2  # title + header + rule + 2 rows

    def test_format_series_missing_points(self):
        text = format_series({"a": {1: 1.0}, "b": {2: 2.0}}, x_label="x")
        assert "-" in text
