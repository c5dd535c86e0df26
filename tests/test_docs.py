"""Documentation stays executable and accurate."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def python_blocks(markdown: str):
    return re.findall(r"```python\n(.*?)```", markdown, flags=re.DOTALL)


class TestReadme:
    def test_quickstart_block_runs(self, tmp_path):
        """The README's quickstart must execute as written."""
        readme = (ROOT / "README.md").read_text()
        blocks = python_blocks(readme)
        assert blocks, "README lost its quickstart code block"
        script = tmp_path / "quickstart_doc.py"
        script.write_text(blocks[0])
        proc = subprocess.run(
            [sys.executable, str(script)], capture_output=True, text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "engine" in proc.stdout  # result.summary() printed

    def test_documented_files_exist(self):
        readme = (ROOT / "README.md").read_text()
        for rel in re.findall(r"python (examples/\w+\.py)", readme):
            assert (ROOT / rel).exists(), rel
        for doc in ("DESIGN.md", "EXPERIMENTS.md", "docs/architecture.md",
                    "docs/api.md"):
            assert doc.split("`")[0]  # trivial guard
            assert (ROOT / doc).exists(), doc

    def test_module_table_entries_importable(self):
        """Every `repro.*` module the README's table cites must import."""
        import importlib

        readme = (ROOT / "README.md").read_text()
        modules = set(re.findall(r"`(repro(?:\.\w+)+)`", readme))
        assert modules
        for name in sorted(modules):
            importlib.import_module(name)


class TestMakefile:
    def test_every_selected_test_id_collects(self):
        """Each ``tests/…::Class[::test]`` id a Makefile target selects
        still names at least one test. ``make test`` runs ``tests/`` once
        and none of the ``*-smoke`` selections, so without this a renamed
        class would break its target silently."""
        makefile = (ROOT / "Makefile").read_text()
        ids = sorted(set(re.findall(r"tests/[\w/]+\.py::[\w:\[\]-]+", makefile)))
        assert len(ids) >= 20, ids
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-o", "addopts=",
             "-q", "-p", "no:cacheprovider", *ids],
            cwd=ROOT, capture_output=True, text=True, timeout=300,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
        collected = proc.stdout.splitlines()
        for node in ids:
            assert any(line == node or line.startswith(node + "::")
                       or line.startswith(node + "[") for line in collected), node


#: Modules that left ``src/repro`` for the benchmarks and examples that
#: call them, or were deleted.
MOVED_OUT = ("repro.analytics", "repro.bench", "repro.distributed",
             "repro.embeddings", "repro.sampling.its",
             "repro.sampling.rejection", "repro.core.deletions",
             "repro.core.persist",
             "repro.engines.mutable", "repro.engines.tea_outofcore.scalar",
             "repro.engines.tea_outofcore.prefetch",
             "repro.graph.transform", "benchmarks", "examples", "tests")


class TestProductBoundary:
    def test_src_ships_only_the_engine(self):
        """No ``src/repro`` module imports the repository's benchmarks,
        examples or tests, and booting the CLI (what ``repro serve``
        does) loads none of the modules that moved out."""
        harness = re.compile(
            r"^\s*(?:from|import)\s+(?:benchmarks|examples|tests)\b", re.M)
        offenders = [
            f"{path.relative_to(ROOT)}: {match.group(0).strip()}"
            for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
            for match in harness.finditer(path.read_text())
        ]
        assert offenders == []
        # Run from the repository root, where ``benchmarks`` and
        # ``examples`` would be importable if anything reached for them.
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; print('\\n'.join(sys.modules))"],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        loaded = [name for name in proc.stdout.split()
                  if any(name == m or name.startswith(m + ".") for m in MOVED_OUT)]
        assert loaded == []


class TestClockLint:
    """``tools/lint_clocks.py`` (``make lint-clocks``) in tier-1: product
    code reads time only through ``repro.telemetry.clock``."""

    @staticmethod
    def lint(root):
        return subprocess.run(
            [sys.executable, str(ROOT / "tools" / "lint_clocks.py"), str(root)],
            capture_output=True, text=True, timeout=120,
        )

    def test_src_is_clean(self):
        proc = self.lint(ROOT)
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_flags_every_layer_but_the_clock(self, tmp_path):
        pkg = tmp_path / "src" / "repro"
        for rel in ("parallel/engine.py", "telemetry/profile.py",
                    "telemetry/clock.py"):
            (pkg / rel).parent.mkdir(parents=True, exist_ok=True)
            (pkg / rel).write_text("import time\nt = time.monotonic()\n")
        proc = self.lint(tmp_path)
        assert proc.returncode == 1
        flagged = sorted(line.split(":")[0] for line in proc.stdout.splitlines()
                         if line.startswith("src/"))
        assert flagged == ["src/repro/parallel/engine.py",
                           "src/repro/telemetry/profile.py"]


class TestDesignDoc:
    def test_bench_targets_listed_in_design_exist(self):
        design = (ROOT / "DESIGN.md").read_text()
        for rel in re.findall(r"`(benchmarks/test_\w+\.py)`", design):
            assert (ROOT / rel).exists(), rel

    def test_paper_confirmation_present(self):
        design = (ROOT / "DESIGN.md").read_text()
        assert "correct paper" in design
        assert "3552326.3567491" in design


class TestExperimentsDoc:
    def test_artifacts_referenced_are_generated(self):
        """Every bench_results artifact EXPERIMENTS.md cites has a
        generator among the benchmark files."""
        experiments = (ROOT / "EXPERIMENTS.md").read_text()
        bench_sources = "\n".join(
            p.read_text() for p in (ROOT / "benchmarks").glob("test_*.py")
        )
        for name in re.findall(r"`(\w+)\.txt`", experiments):
            if name in ("test_output", "bench_output"):  # repo-level outputs
                continue
            assert f'"{name}"' in bench_sources, f"no bench writes {name}.txt"
