"""Alias tables: single and batched lock-step construction."""

import numpy as np
import pytest

from repro.rng import make_rng
from repro.sampling.alias import (
    AliasTable,
    alias_draw,
    build_alias_arrays,
    build_alias_arrays_batch,
)
from tests.conftest import chisquare_ok


def alias_exact_probs(prob: np.ndarray, alias: np.ndarray) -> np.ndarray:
    """Exact item probabilities implied by an alias table."""
    n = prob.size
    out = np.zeros(n)
    for cell in range(n):
        out[cell] += prob[cell] / n
        out[alias[cell]] += (1.0 - prob[cell]) / n
    return out


class TestSingleConstruction:
    @pytest.mark.parametrize(
        "weights",
        [
            [1.0],
            [1.0, 1.0],
            [7.0, 6.0, 5.0],             # Figure 3c's trunk weights
            [1.0, 100.0],
            [0.0, 1.0, 0.0, 2.0],        # zero-weight items allowed
            list(range(1, 33)),
        ],
    )
    def test_exact_probabilities(self, weights):
        w = np.asarray(weights, dtype=float)
        prob, alias = build_alias_arrays(w)
        expected = w / w.sum()
        assert np.allclose(alias_exact_probs(prob, alias), expected, atol=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            build_alias_arrays(np.array([]))
        with pytest.raises(ValueError):
            build_alias_arrays(np.array([0.0, 0.0]))

    def test_prob_in_unit_interval(self):
        rng = make_rng(0)
        w = rng.uniform(0.01, 5.0, 100)
        prob, alias = build_alias_arrays(w)
        assert np.all(prob >= 0.0) and np.all(prob <= 1.0 + 1e-9)
        assert np.all((alias >= 0) & (alias < 100))


class TestBatchConstruction:
    def test_matches_single(self):
        rng = make_rng(3)
        rows = rng.uniform(0.1, 10.0, size=(50, 8))
        bprob, balias = build_alias_arrays_batch(rows)
        for i in range(50):
            expected = rows[i] / rows[i].sum()
            assert np.allclose(
                alias_exact_probs(bprob[i], balias[i]), expected, atol=1e-10
            ), f"row {i}"

    @pytest.mark.parametrize("width", [1, 2, 3, 4, 7, 8, 16, 33])
    def test_widths(self, width):
        rng = make_rng(width)
        rows = rng.uniform(0.01, 1.0, size=(20, width))
        prob, alias = build_alias_arrays_batch(rows)
        for i in range(20):
            expected = rows[i] / rows[i].sum()
            assert np.allclose(alias_exact_probs(prob[i], alias[i]), expected, atol=1e-10)

    def test_extreme_skew(self):
        rows = np.array([[1e-12, 1.0, 1e-12, 1e-12]])
        prob, alias = build_alias_arrays_batch(rows)
        assert np.allclose(
            alias_exact_probs(prob[0], alias[0]), rows[0] / rows[0].sum(), atol=1e-10
        )

    def test_uniform_rows_trivial(self):
        rows = np.ones((5, 4))
        prob, alias = build_alias_arrays_batch(rows)
        assert np.allclose(prob, 1.0)

    @pytest.mark.parametrize("width", [2, 4, 8, 16, 64])
    def test_rows_are_independent_of_their_batch_mates(self, width):
        """Row i of a batch is *bitwise* the single-table build of row i,
        on both sides of the ``T < w`` switch (per-row fallback vs
        lock-step) — what lets the streaming forest build one level of
        many vertices in one call without changing any table."""
        rng = make_rng(width)
        # Weights spanning ~e^80, as the streaming exponential kind does.
        rows = np.exp(rng.uniform(0.0, 80.0, size=(3 * width, width)))
        rows[::5] = rng.uniform(0.1, 1.0, size=rows[::5].shape)
        singles = [build_alias_arrays(row) for row in rows]
        for tables in (1, width - 1, width, 3 * width):
            prob, alias = build_alias_arrays_batch(rows[:tables])
            for i in range(tables):
                assert prob[i].tobytes() == singles[i][0].tobytes(), (tables, i)
                assert alias[i].tobytes() == singles[i][1].tobytes(), (tables, i)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            build_alias_arrays_batch(np.ones(5))
        with pytest.raises(ValueError):
            build_alias_arrays_batch(np.ones((2, 0)))
        with pytest.raises(ValueError):
            build_alias_arrays_batch(np.zeros((2, 3)))

    def test_zero_weight_items_within_rows(self):
        rows = np.array([[0.0, 2.0, 0.0, 2.0], [1.0, 0.0, 0.0, 3.0]])
        prob, alias = build_alias_arrays_batch(rows)
        for i in range(2):
            assert np.allclose(
                alias_exact_probs(prob[i], alias[i]), rows[i] / rows[i].sum(), atol=1e-12
            )


class TestDraws:
    def test_empirical_distribution(self):
        w = np.array([7.0, 6.0, 5.0, 4.0])
        table = AliasTable.from_weights(w)
        rng = make_rng(9)
        counts = np.zeros(4)
        for _ in range(40000):
            counts[table.draw(rng)] += 1
        assert chisquare_ok(counts, w / w.sum())

    def test_flat_slice_draws(self):
        # Two tables stored back to back; the slice selects the second.
        w1, w2 = np.array([1.0, 1.0]), np.array([1.0, 3.0])
        p1, a1 = build_alias_arrays(w1)
        p2, a2 = build_alias_arrays(w2)
        prob = np.concatenate([p1, p2])
        alias = np.concatenate([a1, a2])
        rng = make_rng(4)
        counts = np.zeros(2)
        for _ in range(20000):
            counts[alias_draw(prob, alias, rng, lo=2, hi=4)] += 1
        assert chisquare_ok(counts, w2 / w2.sum())

    def test_counter_accounting(self):
        from repro.sampling.counters import CostCounters

        table = AliasTable.from_weights([1.0, 2.0])
        counters = CostCounters()
        rng = make_rng(0)
        for _ in range(10):
            table.draw(rng, counters)
        assert counters.alias_draws == 10
        assert counters.edges_evaluated == 10

    def test_nbytes(self):
        table = AliasTable.from_weights([1.0, 2.0, 3.0])
        assert table.nbytes() == 3 * 8 * 2
        assert len(table) == 3
