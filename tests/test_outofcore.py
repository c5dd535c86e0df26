"""Out-of-core PAT: persistence, identical draws, I/O accounting."""

import numpy as np
import pytest

from repro.core.builder import build_pat
from repro.core.outofcore import OutOfCorePAT, TrunkStore
from repro.core.weights import WeightModel
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from tests.ooc_oracle import candidate_weight, read_alias_trunk
from tests.ooc_oracle import sample as ooc_sample


@pytest.fixture
def ooc_setup(medium_graph, tmp_path):
    weights = WeightModel("exponential", scale=20.0).compute(medium_graph)
    pat = build_pat(medium_graph, weights, trunk_size=8)
    store = TrunkStore.persist(pat, tmp_path / "trunks").open()
    return pat, OutOfCorePAT(pat, store), store


class TestPersistence:
    def test_files_written(self, ooc_setup, tmp_path):
        for name in ("c.bin", "prob.bin", "alias.bin"):
            assert (tmp_path / "trunks" / name).exists()

    def test_context_manager(self, medium_graph, tmp_path):
        weights = WeightModel("uniform").compute(medium_graph)
        pat = build_pat(medium_graph, weights, trunk_size=4)
        store = TrunkStore.persist(pat, tmp_path / "s")
        with store as s:
            p, a = read_alias_trunk(s, 0, 4, None)
            assert p.size == 4 and a.size == 4
        assert store._c is None  # closed


class TestDrawEquivalence:
    def test_identical_draws_same_seed(self, medium_graph, ooc_setup):
        """Same seed ⇒ byte-identical sample sequence vs in-memory PAT."""
        pat, ooc, _ = ooc_setup
        degrees = medium_graph.degrees()
        for v in np.argsort(degrees)[-5:]:
            d = int(degrees[v])
            for s in {1, 2, d // 2, d - 1, d}:
                if s < 1:
                    continue
                r1, r2 = make_rng(int(v) * 7 + s), make_rng(int(v) * 7 + s)
                assert pat.sample(int(v), s, r1) == ooc_sample(ooc, int(v), s, r2)

    def test_candidate_weight_matches(self, medium_graph, ooc_setup):
        pat, ooc, _ = ooc_setup
        v = int(np.argmax(medium_graph.degrees()))
        for s in (1, 5, medium_graph.out_degree(v)):
            assert candidate_weight(ooc, v, s) == pytest.approx(
                pat.candidate_weight(v, s)
            )


class TestIOAccounting:
    def test_per_step_io_is_trunk_sized(self, medium_graph, ooc_setup):
        """Each step reads O(trunkSize) bytes, not O(D) (Figure 14)."""
        _, ooc, _ = ooc_setup
        v = int(np.argmax(medium_graph.degrees()))
        d = medium_graph.out_degree(v)
        counters = CostCounters()
        rng = make_rng(0)
        n = 200
        for _ in range(n):
            ooc_sample(ooc, v, d, rng, counters)
        bytes_per_step = counters.io_bytes / n
        trunk_bytes = 8 * 16  # trunkSize * (prob + alias)
        assert bytes_per_step <= 2 * trunk_bytes + 64
        assert bytes_per_step < d * 8  # far below a full-degree load

    def test_resident_memory_small(self, medium_graph, ooc_setup):
        pat, ooc, _ = ooc_setup
        # Resident state ≈ |E|/trunkSize floats, well under the full PAT.
        assert ooc.resident_nbytes() < pat.nbytes() / 2

    def test_io_counted_for_partial_trunk(self, medium_graph, ooc_setup):
        _, ooc, _ = ooc_setup
        v = int(np.argmax(medium_graph.degrees()))
        counters = CostCounters()
        rng = make_rng(1)
        # s=3 < trunkSize=8 → always the partial-trunk ITS path.
        for _ in range(50):
            ooc_sample(ooc, v, 3, rng, counters)
        assert counters.io_bytes > 0
