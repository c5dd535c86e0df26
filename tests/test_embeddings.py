"""SGNS embeddings and temporal link prediction
(``examples/link_prediction.py``)."""

import numpy as np
import pytest

from examples.link_prediction import (
    _pairs_from_walks,
    auc_score,
    temporal_link_prediction,
    time_split,
    train_sgns,
)
from repro.graph.edge_stream import EdgeStream
from repro.graph.generators import temporal_powerlaw
from repro.walks.apps import exponential_walk, unbiased_walk
from repro.walks.walker import WalkPath


def make_walks(seqs):
    return [WalkPath(hops=[(v, None if i == 0 else float(i)) for i, v in enumerate(s)])
            for s in seqs]


class TestPairExtraction:
    def test_window_pairs(self):
        walks = make_walks([[0, 1, 2, 3]])
        centers, contexts, occ = _pairs_from_walks(walks, window=1)
        pairs = set(zip(centers.tolist(), contexts.tolist()))
        assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1), (2, 3), (3, 2)}
        assert sorted(occ.tolist()) == [0, 1, 2, 3]

    def test_window_two(self):
        walks = make_walks([[0, 1, 2]])
        centers, _, _ = _pairs_from_walks(walks, window=2)
        assert centers.size == 6  # every ordered pair

    def test_single_vertex_walk_no_pairs(self):
        centers, contexts, _ = _pairs_from_walks(make_walks([[5]]), window=2)
        assert centers.size == 0


class TestTrainSGNS:
    def test_shapes_and_determinism(self):
        walks = make_walks([[0, 1, 2, 3, 0, 1]] * 5)
        a = train_sgns(walks, num_vertices=4, dim=8, epochs=2, seed=3)
        b = train_sgns(walks, num_vertices=4, dim=8, epochs=2, seed=3)
        assert a.vectors.shape == (4, 8)
        assert np.array_equal(a.vectors, b.vectors)
        assert a.pair_count == b.pair_count > 0

    def test_clusters_separate(self):
        """Two disjoint cliques of walk activity → higher intra similarity."""
        left = [[0, 1, 2, 0, 2, 1] for _ in range(20)]
        right = [[3, 4, 5, 3, 5, 4] for _ in range(20)]
        emb = train_sgns(make_walks(left + right), num_vertices=6, dim=16,
                         epochs=8, seed=0)
        intra = emb.similarity(0, 1)
        inter = emb.similarity(0, 4)
        assert intra > inter

    def test_most_similar_excludes_self(self):
        walks = make_walks([[0, 1, 2, 0, 1, 2]] * 10)
        emb = train_sgns(walks, num_vertices=3, dim=8, epochs=3, seed=1)
        top = emb.most_similar(0, k=2)
        assert all(v != 0 for v, _ in top)

    def test_validation(self):
        walks = make_walks([[0, 1]])
        with pytest.raises(ValueError):
            train_sgns(walks, num_vertices=0)
        with pytest.raises(ValueError):
            train_sgns(walks, num_vertices=2, dim=0)
        with pytest.raises(ValueError):
            train_sgns(make_walks([[0]]), num_vertices=1)  # no pairs
        with pytest.raises(ValueError):
            train_sgns(walks, num_vertices=1)  # vertex 1 out of range

    def test_zero_negatives_allowed(self):
        walks = make_walks([[0, 1, 0, 1]] * 5)
        emb = train_sgns(walks, num_vertices=2, negatives=0, epochs=2, seed=0)
        assert np.isfinite(emb.vectors).all()


class TestAUC:
    def test_perfect_separation(self):
        assert auc_score([2.0, 3.0], [0.0, 1.0]) == 1.0

    def test_inverted(self):
        assert auc_score([0.0], [1.0]) == 0.0

    def test_chance(self):
        rng = np.random.default_rng(0)
        pos = rng.normal(size=4000)
        neg = rng.normal(size=4000)
        assert abs(auc_score(pos, neg) - 0.5) < 0.03

    def test_ties_count_half(self):
        assert auc_score([1.0], [1.0]) == 0.5

    def test_validation(self):
        with pytest.raises(ValueError):
            auc_score([], [1.0])


class TestTimeSplit:
    def test_split_sizes_and_order(self):
        stream = EdgeStream.from_edges([(0, 1, float(t)) for t in range(10)])
        train, test = time_split(stream, 0.7)
        assert len(train) == 7 and len(test) == 3
        assert train.time.max() <= test.time.min()

    def test_bad_fraction(self):
        stream = EdgeStream.from_edges([(0, 1, 1.0), (1, 2, 2.0)])
        with pytest.raises(ValueError):
            time_split(stream, 1.0)
        with pytest.raises(ValueError):
            time_split(stream, 0.01)


class TestLinkPrediction:
    @pytest.fixture(scope="class")
    def stream(self):
        return temporal_powerlaw(80, 4000, alpha=0.9, time_horizon=300.0, seed=5)

    def test_end_to_end_beats_chance(self, stream):
        result = temporal_link_prediction(
            stream, exponential_walk(scale=60.0), dim=24,
            walks_per_vertex=6, epochs=4, seed=0,
        )
        assert result.auc > 0.55  # genuinely above chance
        assert result.num_test_edges > 0
        assert "auc" in repr(result)

    def test_deterministic(self, stream):
        a = temporal_link_prediction(stream, unbiased_walk(), epochs=1,
                                     walks_per_vertex=2, seed=9)
        b = temporal_link_prediction(stream, unbiased_walk(), epochs=1,
                                     walks_per_vertex=2, seed=9)
        assert a.auc == b.auc
