"""Incremental HPAT: streaming appends, carries, equivalence to rebuild."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.incremental import IncrementalHPAT, VertexIncrementalHPAT
from repro.core.weights import WeightModel
from repro.exceptions import EmptyCandidateSetError, NotSupportedError
from repro.graph.edge_stream import EdgeStream
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import make_rng
from tests.carry_oracle import OracleVertexForest, forest_state
from tests.conftest import chisquare_ok


def vertex_with_batches(batches, model=None) -> VertexIncrementalHPAT:
    vert = VertexIncrementalHPAT(model or WeightModel("linear_rank"))
    for dst, times in batches:
        vert.append_batch(np.asarray(dst), np.asarray(times, dtype=float))
    return vert


class TestAppend:
    def test_basic_append(self):
        vert = vertex_with_batches([([1, 2, 3], [1.0, 2.0, 3.0])])
        assert vert.num_edges == 3
        dst, times, _ = vert.edges_desc()
        assert list(dst) == [3, 2, 1]
        assert list(times) == [3.0, 2.0, 1.0]

    def test_empty_batch_noop(self):
        vert = vertex_with_batches([([], [])])
        assert vert.num_edges == 0

    def test_out_of_order_batch_rejected(self):
        vert = vertex_with_batches([([1], [5.0])])
        with pytest.raises(NotSupportedError):
            vert.append_batch(np.array([2]), np.array([3.0]))

    def test_unsorted_batch_rejected(self):
        vert = VertexIncrementalHPAT(WeightModel("uniform"))
        with pytest.raises(NotSupportedError):
            vert.append_batch(np.array([1, 2]), np.array([5.0, 3.0]))

    def test_equal_times_allowed(self):
        vert = vertex_with_batches([([1], [5.0]), ([2], [5.0])])
        assert vert.num_edges == 2
        dst, _, _ = vert.edges_desc()
        assert list(dst) == [2, 1]  # newer stream position first

    def test_carry_merge_bounds_blocks(self):
        """Equal-size appends carry like a binary counter: O(log) blocks."""
        vert = VertexIncrementalHPAT(WeightModel("uniform"))
        for i in range(64):
            vert.append_batch(np.array([i]), np.array([float(i)]))
        assert vert.num_blocks() <= 7  # 64 ones → few blocks
        assert vert.num_edges == 64

    def test_amortised_merge_cost(self):
        """Total re-indexed edges stay O(n log n) under single appends."""
        vert = VertexIncrementalHPAT(WeightModel("uniform"))
        n = 256
        for i in range(n):
            vert.append_batch(np.array([i]), np.array([float(i)]))
        assert vert.merged_edges <= 4 * n * np.log2(n)

    def test_big_batch_after_small_absorbs(self):
        vert = vertex_with_batches(
            [([0], [0.0]), ([1], [1.0]), (list(range(2, 50)), list(range(2, 50)))]
        )
        assert vert.num_blocks() == 1


class TestCandidateCount:
    def test_matches_static_graph(self):
        rng = make_rng(0)
        times = np.sort(rng.uniform(0, 100, 64))
        vert = vertex_with_batches(
            [(np.arange(20), times[:20]), (np.arange(20, 64), times[20:])]
        )
        stream = EdgeStream(np.zeros(64, dtype=int), np.arange(64), times)
        graph = TemporalGraph.from_stream(stream)
        for t in [None, -1.0, 0.0, 50.0, 99.0, 200.0]:
            assert vert.candidate_count(t) == graph.candidate_count(0, t), t

    def test_strictness(self):
        vert = vertex_with_batches([([1, 2], [1.0, 2.0])])
        assert vert.candidate_count(1.0) == 1
        assert vert.candidate_count(0.99) == 2


class TestSamplingEquivalence:
    """Incremental structure ≡ from-scratch HPAT, for any batch split."""

    @pytest.mark.parametrize("splits", [[64], [1] * 64, [5, 59], [17, 30, 17], [63, 1]])
    def test_distribution_matches_exact(self, splits):
        rng = make_rng(42)
        n = sum(splits)
        times = np.sort(rng.uniform(0, 50, n))
        model = WeightModel("exponential", scale=10.0)
        batches = []
        pos = 0
        for size in splits:
            batches.append((np.arange(pos, pos + size), times[pos : pos + size]))
            pos += size
        vert = vertex_with_batches(batches, model)
        _, t_desc, w_desc = vert.edges_desc()
        for s in [1, n // 3, n]:
            if s < 1:
                continue
            probs = w_desc[:s] / w_desc[:s].sum()
            counts = np.zeros(n)
            for _ in range(12000):
                dst, _ = vert.sample(s, rng)
                counts[dst - 0] += 1
            # Map destinations back to time-desc positions: dst == index
            # into ascending order, so position = n - 1 - dst.
            counts_desc = counts[::-1][: s + 0]
            # All mass must be within the candidate prefix.
            assert counts[::-1][s:].sum() == 0
            assert chisquare_ok(counts_desc[:s], probs), (splits, s)

    def test_invalid_candidate_sizes(self):
        vert = vertex_with_batches([([1], [1.0])])
        with pytest.raises(EmptyCandidateSetError):
            vert.sample(0, make_rng(0))
        with pytest.raises(EmptyCandidateSetError):
            vert.sample(2, make_rng(0))


class TestGraphLevel:
    def test_apply_batches_matches_static(self, small_graph):
        model = WeightModel("linear_rank")
        inc = IncrementalHPAT(model)
        stream = small_graph.to_stream()
        for batch in stream.batches(97):
            inc.apply_batch(batch)
        assert inc.num_edges == small_graph.num_edges
        for v in range(small_graph.num_vertices):
            assert inc.candidate_count(v, None) == small_graph.out_degree(v)
            assert inc.candidate_count(v, 50.0) == small_graph.candidate_count(v, 50.0)

    def test_init_from_graph(self, small_graph):
        inc = IncrementalHPAT(WeightModel("uniform"), graph=small_graph)
        assert inc.num_edges == small_graph.num_edges

    def test_sample_unknown_vertex(self):
        inc = IncrementalHPAT(WeightModel("uniform"))
        with pytest.raises(EmptyCandidateSetError):
            inc.sample(3, 1, make_rng(0))

    def test_nbytes_grows(self, small_graph):
        inc = IncrementalHPAT(WeightModel("uniform"))
        stream = small_graph.to_stream()
        sizes = []
        for batch in stream.batches(300):
            inc.apply_batch(batch)
            sizes.append(inc.nbytes())
        assert sizes == sorted(sizes)
        assert sizes[-1] > 0


class TestWeightKinds:
    @pytest.mark.parametrize(
        "kind,scale", [("uniform", 1.0), ("linear_rank", 1.0),
                       ("linear_time", 1.0), ("exponential", 10.0)]
    )
    def test_weights_positive_and_monotone(self, kind, scale):
        rng = make_rng(1)
        times = np.sort(rng.uniform(0, 40, 30))
        vert = vertex_with_batches(
            [(np.arange(15), times[:15]), (np.arange(15, 30), times[15:])],
            WeightModel(kind, scale),
        )
        _, _, w = vert.edges_desc()
        assert np.all(w > 0)
        if kind != "uniform":
            assert np.all(w[:-1] >= w[1:] - 1e-12)  # newest-first ⇒ non-increasing


class TestCandidateSearch:
    def test_duplicate_timestamps_at_the_cut(self):
        """Strictly-greater semantics when the query time ties stored edges,
        inside one block and across a block boundary."""
        times = [1.0, 2.0, 2.0, 2.0, 3.0, 3.0, 5.0]
        for splits in ([7], [3, 4], [4, 3], [1] * 7):
            batches, pos = [], 0
            for size in splits:
                batches.append((list(range(pos, pos + size)), times[pos:pos + size]))
                pos += size
            vert = vertex_with_batches(batches)
            for t, want in [(0.0, 7), (1.0, 6), (1.5, 6), (2.0, 3), (3.0, 1),
                            (4.0, 1), (5.0, 0), (6.0, 0), (None, 7)]:
                assert vert.candidate_count(t) == want, (splits, t)


CARRY_KINDS = [("uniform", 1.0), ("linear_rank", 1.0), ("linear_time", 1.0),
               ("exponential", 6.0), ("exponential_decay", 6.0)]


class TestBatchWideEqualsSequential:
    """The batch-wide builder is bit-identical to one vertex at a time."""

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        st.integers(min_value=1, max_value=12),
        st.integers(min_value=1, max_value=160),
        st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=8),
        st.booleans(),
        st.sampled_from(CARRY_KINDS),
        st.integers(min_value=0, max_value=2**31 - 1),
        st.sampled_from([500.0, 40_000.0]),
    )
    def test_matches_per_vertex_oracle(self, num_vertices, num_edges, splits,
                                       ties, kind, seed, horizon):
        rng = make_rng(seed)
        # Skewed sources (a hub plus a tail) and, optionally, heavy
        # timestamp ties; the exponential scale makes weights span many
        # orders of magnitude, where a subtractive prefix sum would cancel,
        # and past float64's range over the long horizon (6 667 scale
        # units), where blocks take exponents and the span caps carries.
        src = (num_vertices * rng.random(num_edges) ** 3).astype(np.int64)
        dst = rng.integers(0, num_vertices, num_edges)
        times = (np.sort(rng.integers(0, 12, num_edges)).astype(float) if ties
                 else np.sort(rng.uniform(0.0, horizon, num_edges)))
        model = WeightModel(*kind)
        index = IncrementalHPAT(model)
        oracle = {}
        pos = 0
        for size in splits + [num_edges]:
            lo, hi = pos, min(pos + size, num_edges)
            pos = hi
            if lo == hi:
                break
            index.apply_batch(EdgeStream(src[lo:hi], dst[lo:hi], times[lo:hi]))
            for v in np.unique(src[lo:hi]):
                mine = np.flatnonzero(src[lo:hi] == v) + lo
                oracle.setdefault(int(v), OracleVertexForest(model)).append_batch(
                    dst[mine], times[mine])
        assert index.num_edges == num_edges
        assert set(index.vertices) == set(oracle)
        for v, want in oracle.items():
            assert forest_state(index.vertices[v]) == forest_state(want), v
        assert index.update_work() == num_edges + sum(
            o.merged_edges for o in oracle.values())

    def test_single_vertex_api_is_the_same_builder(self):
        rng = make_rng(3)
        times = np.sort(rng.uniform(0, 300, 90))
        model = WeightModel("exponential", 6.0)
        vert, want = VertexIncrementalHPAT(model), OracleVertexForest(model)
        for lo, hi in [(0, 1), (1, 2), (2, 9), (9, 10), (10, 64), (64, 90)]:
            vert.append_batch(np.arange(lo, hi), times[lo:hi])
            want.append_batch(np.arange(lo, hi), times[lo:hi])
            assert forest_state(vert) == forest_state(want)

    @pytest.mark.parametrize("kind", ["exponential", "exponential_decay"])
    def test_far_past_float_range_exponents_and_the_span_cap(self, kind):
        """30 000 time units at scale 6 (5 000 scale units): blocks take
        exponents, carries stop at the span, and one batch wider than
        the span goes in as several blocks — all as the oracle says."""
        rng = make_rng(3)
        times = np.sort(rng.uniform(0, 30_000.0, 90))
        model = WeightModel(kind, 6.0)
        vert, want = VertexIncrementalHPAT(model), OracleVertexForest(model)
        for lo, hi in [(0, 1), (1, 2), (2, 9), (9, 10), (10, 64), (64, 90)]:
            vert.append_batch(np.arange(lo, hi), times[lo:hi])
            want.append_batch(np.arange(lo, hi), times[lo:hi])
            assert forest_state(vert) == forest_state(want)
        scaled = [b for b in vert.blocks if b.exp]
        assert len(scaled) > 3
        assert all(b.times[0] <= b.times[-1] + 690.0 * 6.0 for b in scaled)
        # Every mass is a normal float64, so no candidate prefix weighs 0.
        assert all(b.weights.min() >= np.finfo(float).tiny for b in vert.blocks)


class TestAtomicity:
    """A failed batch leaves the index exactly as it found it."""

    @staticmethod
    def full_state(index):
        return (
            index.num_edges, set(index._dirty),
            {v: (forest_state(vert), [id(b) for b in vert.blocks])
             for v, vert in index.vertices.items()},
        )

    def seeded(self, fault_injector=None):
        index = IncrementalHPAT(WeightModel("exponential", 6.0),
                                fault_injector=fault_injector)
        index.apply_batch(EdgeStream([0, 1, 1, 2], [1, 2, 0, 0],
                                     [1.0, 2.0, 3.0, 4.0]))
        index.clear_dirty()
        index.apply_batch(EdgeStream([1], [2], [5.0]))  # leaves vertex 1 dirty
        return index

    def test_order_violation_in_last_group(self):
        index = self.seeded()
        before = self.full_state(index)
        # Groups 0, 1 and the new vertex 5 are fine; vertex 9 is new too;
        # the last group (vertex 2) precedes its newest edge (4.0).
        bad = EdgeStream([0, 1, 5, 9, 2], [3, 3, 3, 3, 3],
                         [6.0, 7.0, 8.0, 9.0, 3.5], sort=False)
        with pytest.raises(NotSupportedError):
            index.apply_batch(bad)
        assert self.full_state(index) == before
        assert index.rollbacks == 1

    def test_unsorted_group_is_rejected_atomically(self):
        index = self.seeded()
        before = self.full_state(index)
        bad = EdgeStream([0, 7, 7], [3, 3, 3], [6.0, 9.0, 8.0], sort=False)
        with pytest.raises(NotSupportedError, match="ascending"):
            index.apply_batch(bad)
        assert self.full_state(index) == before

    @pytest.mark.parametrize("k", [0, 2, 4])
    def test_apply_fault_at_group_k(self, k):
        from repro.exceptions import TransientIOError
        from repro.resilience import FaultInjector

        # Seeding spends 3 + 1 checks (one per vertex group).
        injector = FaultInjector.from_plan({"rules": [
            {"site": "streaming_apply", "kind": "io_error", "calls": [4 + k]}
        ]})
        index = self.seeded(injector)
        before = self.full_state(index)
        batch = EdgeStream([0, 1, 2, 5, 9], [3, 3, 3, 3, 3],
                           [6.0, 7.0, 8.0, 9.0, 10.0])
        with pytest.raises(TransientIOError):
            index.apply_batch(batch)
        assert self.full_state(index) == before
        # The retry lands exactly like a clean ingest.
        index.apply_batch(batch)
        clean = self.seeded()
        clean.apply_batch(batch)
        assert self.full_state(index)[0] == clean.num_edges
        assert ({v: forest_state(x) for v, x in index.vertices.items()}
                == {v: forest_state(x) for v, x in clean.vertices.items()})

    def test_undo_record_takes_a_landed_batch_back(self):
        index = self.seeded()
        before = self.full_state(index)
        batch = EdgeStream([0, 1, 5], [3, 3, 3], [6.0, 7.0, 8.0])
        undo = index.apply_batch(batch)
        assert set(undo) == {0, 1, 5} and undo[5] is None
        index.restore_vertices(undo, len(batch))
        after = self.full_state(index)
        # Dirty marks survive (the next publish re-pins identical state).
        assert (after[0], after[2]) == (before[0], before[2])
