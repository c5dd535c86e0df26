"""Kernel smoke: backend bit-parity and factorized-bias gates.

``python -m repro.kernels.smoke`` is the Makefile's ``kernel-smoke``
gate (the kernel-fusion ISSUE's acceptance criteria, executable):

* **Backend parity** — the compiled ``c`` and fused ``numpy`` backends
  must be bit-identical to the preserved pre-fusion (``legacy``) kernel
  under both counter-based :class:`~repro.rng.LaneRng` streams and the
  shared :class:`~repro.rng.GeneratorLanes` source, across scratch
  reuse.
* **Compile is the gate** — prints what ``auto`` resolved to; with a
  ``cc`` on PATH the compiled backend **must** have loaded (a failure,
  not a skip), without one the fallback note must say why.
* **Walk-level parity** — a full :class:`BatchTeaEngine` node2vec run
  must produce identical walks under every available backend.
* **Factorized decay equivalence** — the radix forest's reconstructed
  weights must match the carry forest's after identical streamed
  batches, with zero merge work (the O(1)-buckets update claim).
"""

from __future__ import annotations

import sys

import numpy as np

from repro.kernels import (
    available_backends,
    backend_fallback_note,
    resolve_backend,
    sample_batch,
    KernelScratch,
)
from repro.rng import GeneratorLanes, LaneRng


def _smoke_index():
    """A skewed exponential-weight HPAT plus (vs, ss) query arrays."""
    from repro.core import builder
    from repro.core.weights import WeightModel
    from repro.graph.generators import temporal_powerlaw
    from repro.graph.temporal_graph import TemporalGraph

    graph = TemporalGraph.from_stream(
        temporal_powerlaw(num_vertices=120, num_edges=3000, alpha=1.0,
                          time_horizon=150.0, seed=11)
    )
    pre = builder.preprocess(graph, WeightModel("exponential", scale=2.0))
    deg = np.diff(pre.index.indptr)
    rng = np.random.default_rng(0)
    lively = np.flatnonzero(deg > 0)
    vs = lively[rng.integers(0, lively.size, size=800)].astype(np.int64)
    ss = 1 + (rng.random(800) * deg[vs]).astype(np.int64)
    return pre.index, vs, ss


def backend_parity_smoke() -> dict:
    """Every available backend bit-identical to legacy on shared draws."""
    index, vs, ss = _smoke_index()
    legacy = resolve_backend("legacy")
    lanes = np.arange(vs.size, dtype=np.int64)
    names = [n for n in available_backends() if n != "legacy"]
    checked = 0
    for name in names:
        backend = resolve_backend(name)
        scratch = KernelScratch()
        for label, mk in (
            ("LaneRng", lambda: LaneRng(
                np.arange(vs.size, dtype=np.uint64) + 99)),
            ("GeneratorLanes", lambda: GeneratorLanes(
                np.random.default_rng(17))),
        ):
            ref = sample_batch(legacy, index, vs, ss, None,
                               draw=mk(), lanes=lanes)
            got = sample_batch(backend, index, vs, ss, None,
                               draw=mk(), lanes=lanes, scratch=scratch)
            assert np.array_equal(ref, got), (
                f"backend {name!r} diverged from legacy under {label}"
            )
            checked += 1
    print(f"kernel parity: {names} == legacy over {checked} draws "
          f"({vs.size} lanes each)")
    return {"backends": names, "checks": checked}


def fallback_smoke() -> dict:
    """``auto`` is ``c`` wherever a compiler exists; else numpy + a note."""
    from repro.kernels.c_backend import find_cc

    resolved = resolve_backend("auto").name
    note = backend_fallback_note()
    print(f"kernel backend: auto -> {resolved}"
          + (f"  ({note})" if note else ""))
    if find_cc() is not None:
        assert resolved == "c", (
            f"cc is on PATH but the compiled backend did not load: {note}"
        )
    else:
        assert resolved == "numpy" and note and "cc" in note, (
            "without a compiler auto must serve numpy and say why"
        )
    return {"resolved": resolved, "note": note}


def walk_parity_smoke() -> dict:
    """Whole node2vec runs identical across backends (hop-for-hop)."""
    from repro.engines.base import Workload
    from repro.engines.batch import BatchTeaEngine
    from repro.graph.datasets import load_dataset
    from repro.walks.apps import APPLICATIONS

    graph = load_dataset("tiny", seed=7)
    spec = APPLICATIONS["node2vec"]
    workload = Workload(walks_per_vertex=2, max_length=30)
    baseline = None
    names = list(available_backends())
    for name in names:
        engine = BatchTeaEngine(graph, spec, kernel_backend=name)
        result = engine.run(workload, seed=5, record_paths=True)
        walks = [tuple(p.vertices) for p in result.paths]
        if baseline is None:
            baseline = walks
        else:
            assert walks == baseline, (
                f"backend {name!r} changed walk output"
            )
    print(f"walk parity: {len(baseline)} node2vec walks identical "
          f"across {names}")
    return {"walks": len(baseline), "backends": names}


def factorized_decay_smoke() -> dict:
    """Radix forest == carry forest on a streamed decay workload."""
    from repro.core.incremental import VertexIncrementalHPAT
    from repro.core.weights import WeightModel
    from repro.kernels.decay import DecayRadixForest

    wm = WeightModel("exponential_decay", scale=5.0)
    rng = np.random.default_rng(23)
    times = np.sort(rng.uniform(0.0, 120.0, size=800))
    dst = rng.integers(0, 64, size=800).astype(np.int64)
    carry = VertexIncrementalHPAT(wm)
    radix = DecayRadixForest(wm)
    cuts = np.linspace(0, 800, 17).astype(int)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        carry.append_batch(dst[lo:hi], times[lo:hi])
        radix.append_batch(dst[lo:hi], times[lo:hi])
    d1, t1, w1 = carry.edges_desc()
    d2, t2, w2 = radix.edges_desc()
    assert np.array_equal(d1, d2) and np.array_equal(t1, t2)
    np.testing.assert_allclose(w1, w2, rtol=1e-12)
    assert radix.merged_edges == 0 and radix.reindexed_edges == 800
    assert carry.merged_edges > 0, (
        "smoke workload too small to exercise the carry path"
    )
    # candidate counts agree at every probe time
    for t in np.linspace(times[0] - 1, times[-1] + 1, 13):
        assert carry.candidate_count(float(t)) == radix.candidate_count(float(t))
    print(f"factorized decay: weights equal (rtol 1e-12); carry "
          f"re-indexed {carry.merged_edges} edges, radix 0 "
          f"(buckets touched: {radix.buckets_touched})")
    return {"carry_merged": carry.merged_edges,
            "radix_buckets_touched": radix.buckets_touched}


def main() -> int:
    backend_parity_smoke()
    fallback_smoke()
    walk_parity_smoke()
    factorized_decay_smoke()
    return 0


if __name__ == "__main__":  # pragma: no cover - CLI entry
    sys.exit(main())
