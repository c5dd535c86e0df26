"""Second property-based suite: streams, sinks, deletions, batch engine."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from examples.link_prediction import auc_score
from examples.moderation_pipeline import TombstoneHPAT
from repro.core.frame_pool import FramePool
from repro.core.weights import WeightModel
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import make_rng
from repro.walks.walker import WalkPath

edge_lists = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
        st.floats(min_value=0.0, max_value=1000.0),
    ),
    min_size=0,
    max_size=60,
)


@given(edge_lists)
def test_edge_stream_always_time_sorted(edges):
    stream = EdgeStream.from_edges(edges)
    assert stream.is_time_sorted()
    assert len(stream) == len(edges)


@given(edge_lists, st.floats(min_value=0, max_value=1000),
       st.floats(min_value=0, max_value=1000))
def test_interval_is_exact_filter(edges, a, b):
    lo, hi = min(a, b), max(a, b)
    stream = EdgeStream.from_edges(edges)
    sub = stream.interval(lo, hi)
    expected = sorted(t for _, _, t in edges if lo <= t <= hi)
    assert list(sub.time) == expected


@given(edge_lists, st.integers(min_value=1, max_value=10))
def test_batches_partition_stream(edges, batch_size):
    stream = EdgeStream.from_edges(edges)
    batches = list(stream.batches(batch_size))
    assert sum(len(b) for b in batches) == len(stream)
    rebuilt = np.concatenate([b.time for b in batches]) if batches else np.zeros(0)
    assert np.array_equal(rebuilt, stream.time)


@given(edge_lists)
def test_graph_roundtrip_preserves_multiset(edges):
    stream = EdgeStream.from_edges(edges)
    graph = TemporalGraph.from_stream(stream)
    back = graph.to_stream()
    assert sorted(zip(back.src, back.dst, back.time)) == sorted(
        zip(stream.src, stream.dst, stream.time)
    )


@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(min_value=2, max_value=40),
    st.sets(st.integers(min_value=0, max_value=39), max_size=20),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_tombstones_never_sampled(degree, dead_positions, seed):
    dead_positions = {p for p in dead_positions if p < degree}
    if len(dead_positions) >= degree:
        return
    graph = TemporalGraph.from_edges(
        [(0, i + 1, float(i)) for i in range(degree)]
    )
    weights = WeightModel("linear_rank").compute(graph)
    index = TombstoneHPAT(graph, weights, rebuild_threshold=0.4)
    for p in dead_positions:
        index.delete_position(0, p)
    rng = make_rng(seed)
    for _ in range(200):
        assert index.sample(0, degree, rng) not in dead_positions


@settings(max_examples=30, deadline=None)
@given(
    st.lists(
        st.lists(st.tuples(st.integers(min_value=0, max_value=20),
                           st.floats(allow_nan=False, allow_infinity=False)),
                 min_size=1, max_size=8),
        min_size=1,
        max_size=10,
    ),
    st.integers(min_value=1, max_value=4),
)
def test_walk_sink_roundtrip(walk_hops, block):
    """Appended walks and a frontier's columns, written in blocks of
    ``block`` walks to either format, read back as the ``WalkPath``s
    they were built from."""
    import tempfile
    from pathlib import Path
    from unittest import mock

    from repro.engines import base
    from repro.walks import sink as sink_module

    walks = [WalkPath(hops=[(hops[0][0], None)] + hops[1:]) for hops in walk_hops]
    max_length = max(len(w.hops) for w in walks) - 1
    frontier = base.FrontierResult.empty(
        np.array([w.hops[0][0] for w in walks]), max_length, keep_hops=True)
    for i, walk in enumerate(walks):
        frontier.record(i, walk.hops, max_length)
    assert [p.hops for p in frontier.materialise_paths()] == [w.hops for w in walks]

    with tempfile.TemporaryDirectory() as tmp, \
            mock.patch.object(sink_module, "BLOCK_WALKS", block), \
            mock.patch.object(base, "BLOCK_WALKS", block):
        for name in ("w.txt", "w.twalks"):
            path = Path(tmp) / name
            with sink_module.WalkSink(path) as sink:
                for walk in walks:
                    sink.append(walk)
                sink.write(frontier)
            loaded = list(sink_module.read_walks(path))
            assert [w.hops for w in loaded] == [w.hops for w in walks + walks]


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.tuples(st.integers(min_value=0, max_value=40),
                       st.integers(min_value=1, max_value=32),
                       st.booleans()),
             min_size=1, max_size=40),
    st.integers(min_value=64, max_value=2048),
)
def test_block_cache_never_exceeds_budget(operations, capacity):
    """The frame pool's slab is its budget: whatever is admitted —
    any payload length up to a frame, pinned or not — resident bytes
    never exceed it, and a resident key returns what was stored."""
    pool = FramePool(capacity)
    pool.set_width(32)
    stored = {}
    for key, size, pin in operations:
        row = np.full((1, size), float(key))
        if pool.admit(np.array([key]), row, np.array([size * 8]), pin=pin)[0]:
            stored[key] = size
        assert pool.nbytes <= capacity
    for key, size in stored.items():
        frame = int(pool.find(np.array([key]))[0])
        assert frame < 0 or (pool.slab[frame, :size] == key).all()


@given(
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
    st.lists(st.floats(min_value=-100, max_value=100), min_size=1, max_size=50),
)
def test_auc_bounds_and_antisymmetry(pos, neg):
    auc = auc_score(pos, neg)
    assert 0.0 <= auc <= 1.0
    flipped = auc_score(neg, pos)
    assert auc + flipped == np.float64(1.0) or abs(auc + flipped - 1.0) < 1e-9
