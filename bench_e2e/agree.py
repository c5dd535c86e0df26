"""``python -m bench_e2e agree A.json B.json``: do two result sets of the
same code agree within the benchmark's own bounds?

A result set is what ``python -m bench_e2e run --out FILE`` writes. For
every workload, every end-to-end metric may differ by at most its bound
in ``BENCHMARK.json`` (relative to the smaller of the two values, so the
verdict does not depend on argument order), and the count metrics in
``EXACT`` must repeat exactly when both sets were made with the same seed.
"""

from __future__ import annotations

import json
from typing import List

from bench_e2e.common import ROOT

#: Counts that are a pure function of the seed. ``core.read_ops`` is
#: here because calibration showed it is: the engine drains the prefetch
#: thread before every batched read, so the number of backing reads does
#: not depend on thread timing (six full sets, identical to the digit).
EXACT = (
    "kernels.edges_evaluated_per_step",
    "kernels.alias_draws_per_step",
    "kernels.probes_per_step",
    "streaming.wal_fsyncs",
    "core.read_ops",
)


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def deviation(a: float, b: float) -> float:
    """``|a - b|`` as a share of the smaller value."""
    if a == b:
        return 0.0
    low = min(abs(a), abs(b))
    return abs(a - b) / low if low else float("inf")


def compare(a: dict, b: dict, contract: dict) -> List[str]:
    """Human-readable disagreements between two result sets (empty = agree)."""
    problems: List[str] = []
    same_seed = a.get("seed") == b.get("seed")
    for workload in sorted(set(a["workloads"]) | set(b["workloads"])):
        wa = a["workloads"].get(workload)
        wb = b["workloads"].get(workload)
        if wa is None or wb is None:
            problems.append(f"{workload}: present in only one set")
            continue
        for side, w in (("A", wa), ("B", wb)):
            if w["failed"]:
                problems.append(f"{workload}: {w['failed']} failed ops in set {side}")
        for metric in contract["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            va = wa["end_to_end"][name]["value"]
            vb = wb["end_to_end"][name]["value"]
            dev = deviation(va, vb)
            if dev > bound:
                problems.append(
                    f"{workload} {name}: {va:.6g} vs {vb:.6g} differ by "
                    f"{dev:.1%} > bound {bound:.0%}")
        if same_seed and wa.get("per_layer") and wb.get("per_layer"):
            for name in EXACT:
                va = wa["per_layer"][name]["value"]
                vb = wb["per_layer"][name]["value"]
                if va != vb:
                    problems.append(
                        f"{workload} {name}: count {va!r} vs {vb!r} must repeat exactly")
    return problems


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        problems = compare(json.load(fa), json.load(fb), load_contract())
    for line in problems:
        print("DISAGREE", line)
    print("agree" if not problems else f"{len(problems)} disagreement(s)")
    return 1 if problems else 0
