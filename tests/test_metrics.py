"""Memory reports, byte formatting, and root phase timing."""

import time

import pytest

from repro.telemetry import MemoryReport, PhaseProfiler, format_bytes


class TestFormatBytes:
    @pytest.mark.parametrize(
        "n,expected",
        [
            (0, "0 B"),
            (512, "512 B"),
            (1024, "1.00 KiB"),
            (1536, "1.50 KiB"),
            (1024**2, "1.00 MiB"),
            (1024**3, "1.00 GiB"),
        ],
    )
    def test_units(self, n, expected):
        assert format_bytes(n) == expected


class TestMemoryReport:
    def test_add_and_total(self):
        report = MemoryReport()
        report.add("a", 100).add("b", 200).add("a", 50)
        assert report.total == 350
        assert report.components["a"] == 150

    def test_fraction(self):
        report = MemoryReport()
        report.add("index", 900).add("graph", 100)
        assert report.fraction("index") == pytest.approx(0.9)
        assert report.fraction("missing") == 0.0

    def test_fraction_empty(self):
        assert MemoryReport().fraction("x") == 0.0

    def test_pretty_sorted_by_size(self):
        report = MemoryReport()
        report.add("small", 10).add("large", 10_000)
        lines = report.pretty().splitlines()
        assert "total" in lines[0]
        assert "large" in lines[1]


class TestPhaseTimer:
    """Root phase seconds, now read off the one phase recorder."""

    def test_accumulates(self):
        timer = PhaseProfiler.bare()
        with timer.phase("a"):
            time.sleep(0.01)
        with timer.phase("a"):
            pass
        with timer.phase("b"):
            pass
        assert timer.phases[("a",)][0] == 2
        assert timer.phase_seconds("a") >= 0.01
        assert timer.root_seconds() == pytest.approx(
            timer.phase_seconds("a") + timer.phase_seconds("b"))

    def test_snapshot_includes_total(self):
        timer = PhaseProfiler.bare()
        with timer.phase("x"):
            pass
        snap = timer.snapshot()
        assert snap["phases"]["x"]["inclusive_s"] == pytest.approx(
            timer.root_seconds())

    def test_exception_still_recorded(self):
        timer = PhaseProfiler.bare()
        with pytest.raises(RuntimeError):
            with timer.phase("boom"):
                raise RuntimeError()
        assert ("boom",) in timer.phases
