"""Property-based tests (hypothesis) for the core invariants.

These encode DESIGN.md §5: trunk decomposition, alias-table mass
conservation, candidate-prefix structure, path validity under arbitrary
graphs, and incremental-vs-static equivalence under arbitrary batch
splits.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.aux_index import AuxiliaryIndex
from repro.core.builder import build_pat, build_prefix_array
from repro.core.incremental import VertexIncrementalHPAT
from repro.core.trunks import binary_decompose, pat_trunk_size
from repro.core.weights import WeightModel
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import make_rng
from repro.sampling.alias import build_alias_arrays, build_alias_arrays_batch
from tests.conftest import build_hpat_with_aux

_AUX = AuxiliaryIndex(max_size=1 << 16)


@given(st.integers(min_value=0, max_value=10**9))
def test_binary_decomposition_invariants(size):
    blocks = binary_decompose(size)
    covered = 0
    for level, offset in blocks:
        assert offset == covered
        assert offset % (1 << level) == 0
        covered += 1 << level
    assert covered == size
    assert len(blocks) == bin(size).count("1")


@given(st.integers(min_value=1, max_value=(1 << 16)))
def test_aux_index_matches_decomposition(size):
    levels, cuts = _AUX.lookup(size)
    blocks = binary_decompose(size)
    assert list(levels) == [k for k, _ in blocks]
    assert list(cuts) == [off + (1 << k) for k, off in blocks]


@given(st.integers(min_value=1, max_value=10**7))
def test_pat_trunk_size_sqrt_band(degree):
    ts = pat_trunk_size(degree)
    assert ts >= 1
    assert ts * ts <= degree
    assert (ts + 1) * (ts + 1) > degree


@given(
    st.lists(st.floats(min_value=1e-6, max_value=1e6), min_size=1, max_size=64)
)
def test_alias_table_conserves_mass(weights):
    w = np.asarray(weights)
    prob, alias = build_alias_arrays(w)
    n = w.size
    implied = np.zeros(n)
    for cell in range(n):
        implied[cell] += prob[cell] / n
        implied[alias[cell]] += (1 - prob[cell]) / n
    assert np.allclose(implied, w / w.sum(), rtol=1e-9, atol=1e-12)


@given(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=20),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_batch_alias_matches_single(width, tables, seed):
    rng = make_rng(seed)
    rows = rng.uniform(0.001, 100.0, size=(tables, width))
    bprob, balias = build_alias_arrays_batch(rows)
    for i in range(tables):
        implied = np.zeros(width)
        for cell in range(width):
            implied[cell] += bprob[i, cell] / width
            implied[balias[i, cell]] += (1 - bprob[i, cell]) / width
        assert np.allclose(implied, rows[i] / rows[i].sum(), rtol=1e-9)


graph_strategy = st.builds(
    lambda n, edges: TemporalGraph.from_stream(
        EdgeStream(
            [min(u, n - 1) for u, _, _ in edges],
            [min(v, n - 1) for _, v, _ in edges],
            [t for _, _, t in edges],
        ),
        num_vertices=n,
    ),
    st.integers(min_value=2, max_value=12),
    st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=11),
            st.integers(min_value=0, max_value=11),
            st.floats(min_value=0.0, max_value=100.0),
        ),
        min_size=1,
        max_size=80,
    ),
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph_strategy, st.integers(min_value=0, max_value=2**31 - 1))
def test_candidate_sets_are_prefixes(graph, seed):
    rng = make_rng(seed)
    for _ in range(10):
        v = int(rng.integers(0, graph.num_vertices))
        t = float(rng.uniform(-1, 101))
        s = graph.candidate_count(v, t)
        _, times = graph.neighbors(v)
        assert np.all(times[:s] > t)
        assert np.all(times[s:] <= t)


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph_strategy, st.integers(min_value=0, max_value=2**31 - 1))
def test_samplers_stay_inside_candidate_sets(graph, seed):
    """PAT and HPAT never sample outside the candidate prefix."""
    if graph.num_edges == 0:
        return
    weights = WeightModel("exponential", scale=10.0).compute(graph)
    hpat = build_hpat_with_aux(graph, weights)
    pat = build_pat(graph, weights)
    rng = make_rng(seed)
    for v in range(graph.num_vertices):
        d = graph.out_degree(v)
        for s in range(1, d + 1):
            # HPAT through the aux index and through the recomputed
            # decomposition, then PAT.
            for idx in (hpat.sample(v, s, rng), hpat.sample(v, s, rng, use_index=False),
                        pat.sample(v, s, rng)):
                assert 0 <= idx < s


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_incremental_equals_static_weights(batch_sizes, seed):
    """After arbitrary batch splits, the incremental structure holds exactly
    the edges and static weights a from-scratch build would."""
    rng = make_rng(seed)
    total = sum(batch_sizes)
    times = np.sort(rng.uniform(0, 100, total))
    model = WeightModel("exponential", scale=20.0)
    vert = VertexIncrementalHPAT(model)
    pos = 0
    for size in batch_sizes:
        vert.append_batch(np.arange(pos, pos + size), times[pos : pos + size])
        pos += size
    dst, t_desc, w_desc = vert.edges_desc()
    assert list(dst) == list(range(total - 1, -1, -1))
    assert np.allclose(t_desc, times[::-1])
    # Weight ratios must match the exponential form (reference-invariant).
    expected = np.exp((times[::-1] - times[::-1].max()) / 20.0)
    assert np.allclose(w_desc / w_desc.max(), expected, rtol=1e-9)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph_strategy, st.integers(min_value=0, max_value=2**31 - 1))
def test_engine_paths_always_temporal(graph, seed):
    from repro.engines import TeaEngine, Workload
    from repro.graph.validate import is_temporal_path
    from repro.walks.apps import exponential_walk

    engine = TeaEngine(graph, exponential_walk(scale=10.0))
    result = engine.run(Workload(max_length=8, max_walks=10), seed=seed)
    for path in result.paths:
        assert is_temporal_path(graph, path.hops)


@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(graph_strategy)
def test_prefix_array_segment_totals(graph):
    weights = WeightModel("linear_rank").compute(graph)
    c = build_prefix_array(graph, weights)
    for v in range(graph.num_vertices):
        lo, hi = graph.indptr[v], graph.indptr[v + 1]
        base = lo + v
        assert c[base] == 0.0
        assert np.isclose(c[base + (hi - lo)], weights[lo:hi].sum())
