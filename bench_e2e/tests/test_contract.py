"""``BENCHMARK.json`` and what ``python3 -m bench_e2e`` prints agree.

The runs below are in ``--quick`` mode: a few seconds each, not for numbers.
"""

import json
import re
import shutil
import subprocess
import sys

import pytest

from bench_e2e.__main__ import WORKLOADS
from bench_e2e.common import ROOT

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "-m", "bench_e2e", *args], cwd=cwd,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=170)


def last_line(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.rstrip().rsplit("\n", 1)[-1])


def test_contract_file_shape():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    assert CONTRACT["paths"] == ["bench_e2e"]
    assert CONTRACT["command"] == ["python3", "-m", "bench_e2e"]
    assert isinstance(CONTRACT["run_seconds"], int) and 1 <= CONTRACT["run_seconds"] <= 60
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert [w["name"] for w in CONTRACT["workloads"]] == list(WORKLOADS)
    for w in CONTRACT["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in CONTRACT["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in CONTRACT["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    names = [m["name"] for group in ("workloads", "end_to_end", "per_layer")
             for m in CONTRACT[group]]
    assert len(names) == len(set(names))
    for m in CONTRACT["end_to_end"] + CONTRACT["per_layer"]:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("higher", "lower")
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_end_to_end_metric_is_emitted_with_its_unit(workload):
    done = run("--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", "0", "--quick")
    assert "not for numbers" in done.stdout
    result = last_line(done)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert result["metrics"].keys() == {m["name"] for m in CONTRACT["end_to_end"]}
    for m in CONTRACT["end_to_end"]:
        cell = result["metrics"][m["name"]]
        assert cell["unit"] == m["unit"] and cell["value"] > 0


def test_every_per_layer_metric_is_emitted_with_its_unit(tmp_path):
    spans = tmp_path / "spans.jsonl"
    done = run("--workload", "corpus_exp", "--seed", "7", "--seconds", "1",
               "--trace", "1", "--quick", "--trace-out", str(spans))
    result = last_line(done)
    assert result["correct"] is True
    assert result["metrics"].keys() == {m["name"] for m in CONTRACT["per_layer"]}
    for m in CONTRACT["per_layer"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    recorded = [json.loads(line) for line in spans.read_text().splitlines()]
    assert {s["workload"] for s in recorded} == set(WORKLOADS)
    layers = {s["name"].split(".")[0] for s in recorded}
    assert {"graph", "core", "kernels", "engines", "parallel", "walks", "serve",
            "streaming", "telemetry", "rng"} <= layers
    assert all(s["end"] >= s["start"] for s in recorded)


def test_exits_nonzero_without_a_result_when_the_program_is_absent(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench_e2e", tmp_path / "bench_e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run("--workload", "corpus_exp", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_bench_reads_no_environment_knob():
    """Handing the environment on to children (``os.environ.update``,
    ``{**os.environ}``) is fine; reading a variable out of it is not."""
    for path in sorted((ROOT / "bench_e2e").glob("*.py")):
        reads = re.findall(r"environ\s*\[|environ\.get|getenv|environb", path.read_text())
        assert not reads, f"{path.name}: {reads}"
