"""Every shipped example must run cleanly end to end."""

import hashlib
import re
import runpy
import sys
from pathlib import Path

import pytest

EXAMPLES = sorted((Path(__file__).resolve().parent.parent / "examples").glob("*.py"))

#: SHA-256 of the stdout of examples whose library code moved into them
#: (the deletion engine, the graph transforms), recorded while that code
#: still lived in ``src/repro``: the move must not change a byte. Wall-
#: clock fields (``prep= … ms``) are masked first. moderation_pipeline was
#: re-pinned when ``alias`` became int32: its one changed line is
#: "resident index memory: 2361 KiB" → "1866 KiB"; every walk is the same.
#: Re-pinned again when the session stats gained ``index_builds``: its one
#: changed line is the stats dict, which now reads ``'index_builds': 3``.
#: Re-pinned again when the batch engines stopped building the auxiliary
#: index (only the scalar HPAT step reads it): its one changed line is
#: "resident index memory: 1866 KiB" → "1709 KiB".
PINNED_OUTPUT = {
    "moderation_pipeline":
        "885721d792339d44fd4350be71d5f65f7645db2212cd81334d5d8e1e719d1c8e",
    "network_analysis":
        "51fc1cd5f614a10b75429a641d007d03badc04d50e39666663dcfd67c24a0c34",
}


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.stem)
def test_example_runs(script, monkeypatch, capsys):
    # Examples tuned for humans can be slow; shrink their knobs where the
    # module exposes them, otherwise just run as-is.
    monkeypatch.setattr(sys, "argv", [str(script)])
    namespace = runpy.run_path(str(script), run_name="not_main")
    assert "main" in namespace
    if script.stem == "streaming_updates":
        # The rebuild-vs-incremental demo at full size takes seconds; the
        # streaming session alone covers the example's code path.
        namespace["streaming_session"]()
        namespace["incremental_vs_rebuild"](degree=5_000, batch=200)
    else:
        namespace["main"]()
    out = capsys.readouterr().out
    assert out.strip(), f"{script.stem} produced no output"
    if script.stem in PINNED_OUTPUT:
        masked = re.sub(r"prep=\s*[\d.]+ ms", "prep= ms", out)
        digest = hashlib.sha256(masked.encode()).hexdigest()
        assert digest == PINNED_OUTPUT[script.stem], script.stem


def test_examples_exist():
    names = {p.stem for p in EXAMPLES}
    assert {"quickstart", "commute_network", "ecommerce_recommendation",
            "streaming_updates", "out_of_core"} <= names
