import numpy as np
import pytest

from bench_e2e import checks


def test_chi2_sf_matches_known_values():
    # Reference values from standard chi-squared tables.
    assert checks.chi2_sf(3.841458820694124, 1) == pytest.approx(0.05, rel=1e-6)
    assert checks.chi2_sf(18.307038053275146, 10) == pytest.approx(0.05, rel=1e-6)
    assert checks.chi2_sf(124.3421134, 100) == pytest.approx(0.05, rel=1e-5)
    assert checks.chi2_sf(2.0, 2) == pytest.approx(np.exp(-1.0), rel=1e-9)
    assert checks.chi2_sf(0.0, 5) == 1.0
    assert checks.chi2_sf(2000.0, 100) < 1e-200
    assert 0.49 < checks.chi2_sf(999.33, 1000) < 0.51


@pytest.fixture
def oracle():
    src = np.array([0, 0, 0, 1, 1, 2])
    dst = np.array([1, 2, 2, 2, 0, 0])
    time = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
    return checks.EdgeOracle(src, dst, time, num_vertices=3)


def test_edge_membership_is_exact(oracle):
    assert oracle.contains([0, 0, 1], [1, 2, 2], [1.0, 3.0, 4.0]).all()
    assert not oracle.contains([0], [1], [2.0])[0]      # right pair, wrong time
    assert not oracle.contains([1], [0], [1.0])[0]      # reversed edge
    assert not oracle.contains([0], [1], [1.5])[0]      # a time no edge has
    assert not oracle.contains([0], [1], [99.0])[0]     # beyond the last time


def test_first_hop_probabilities_follow_eq3(oracle):
    keys, prob = oracle.first_hop(0, scale=2.0)
    weight = np.exp(np.array([1.0, 2.0, 3.0]) / 2.0)
    assert prob.sum() == pytest.approx(1.0)
    assert sorted(prob) == pytest.approx(sorted(weight / weight.sum()))
    assert keys.size == 3


@pytest.mark.parametrize("walks, max_length, failed", [
    ([([0, 2, 0], [3.0, 6.0]), ([1], [])], 2, 0),
    ([([0, 1, 2], [1.0, 4.0]), ([2, 0, 1], [6.0, 1.0])], 2, 1),  # goes back in time
    ([([0, 1], [7.0])], 2, 1),                                   # not an edge
    ([([0, 2, 0], [3.0, 6.0])], 1, 1),                           # too long
    ([([0, 2, 0], [3.0])], 2, 1),                                # malformed
])
def test_paths_check_catches_each_defect(oracle, walks, max_length, failed):
    ops = checks.Ops()
    checks.check_paths(ops, "t", oracle, walks, max_length)
    assert (ops.attempted, ops.failed) == (1, failed)


def _hub(n=200, seed=0):
    rng = np.random.default_rng(seed)
    dst = rng.integers(1, 50, n)
    time = np.sort(rng.random(n) * 100.0)
    return checks.EdgeOracle(np.zeros(n, dtype=np.int64), dst, time, 50), dst, time


def test_first_hop_check_accepts_the_right_distribution():
    oracle, dst, time = _hub()
    weight = np.exp(time / 6.0)
    draws = np.random.default_rng(1).choice(dst.size, 20_000, p=weight / weight.sum())
    ops = checks.Ops()
    p = checks.check_first_hop(ops, "t", oracle, 0, 6.0, dst[draws], time[draws])
    assert ops.failed == 0 and p > 1e-3


def test_first_hop_check_rejects_an_inverted_decay_sign():
    oracle, dst, time = _hub()
    weight = np.exp(-time / 6.0)
    draws = np.random.default_rng(1).choice(dst.size, 20_000, p=weight / weight.sum())
    ops = checks.Ops()
    checks.check_first_hop(ops, "t", oracle, 0, 6.0, dst[draws], time[draws])
    assert ops.failed == 1


def test_first_hop_check_rejects_a_hop_that_is_not_an_out_edge():
    oracle, dst, time = _hub()
    ops = checks.Ops()
    checks.check_first_hop(ops, "t", oracle, 0, 6.0, np.array([49]), np.array([-1.0]))
    assert ops.failed == 1


def test_serve_checks():
    ops = checks.Ops()
    checks.check_stats_conserved(ops, dict(received=5, served=3, rejected=1, failed=1))
    checks.check_stats_conserved(ops, dict(received=5, served=3, rejected=1, failed=0))
    answer = {"kind": "walk", "lengths": [1], "walks": [[0, 1]], "times": [[1.0]],
              "num_walks": 1, "run_id": "a", "batched_with": 3}
    checks.check_replay(ops, answer, {**answer, "run_id": "b", "batched_with": 1})
    checks.check_replay(ops, answer, {**answer, "times": [[1.5]]})
    assert (ops.attempted, ops.failed) == (4, 2)
    assert "fields differ: ['times']" in ops.failures[1]
