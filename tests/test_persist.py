"""Index persistence: save/load, fingerprinting, engine warm start."""

import numpy as np
import pytest

from repro.core import persist
from repro.core.builder import build_hpat, build_pat, search_candidate_sets
from repro.core.weights import WeightModel
from repro.core.hpat import HierarchicalPAT
from repro.engines import TeaEngine, Workload
from repro.engines.batch import BatchTeaEngine
from repro.exceptions import GraphFormatError
from repro.graph.generators import temporal_powerlaw
from repro.graph.temporal_graph import TemporalGraph
from repro.rng import make_rng
from repro.walks.apps import exponential_walk, linear_walk


@pytest.fixture
def setup(small_graph):
    model = WeightModel("exponential", scale=20.0)
    weights = model.compute(small_graph)
    hpat = build_hpat(small_graph, weights)
    sizes = search_candidate_sets(small_graph)
    return small_graph, model, hpat, sizes


class TestHpatRoundtrip:
    def test_identical_arrays(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "index.npz"
        persist.save_hpat(path, hpat, graph, sizes, weight_desc=model.describe())
        loaded, loaded_sizes = persist.load_hpat(path, graph,
                                                 weight_desc=model.describe())
        assert np.array_equal(loaded.c, hpat.c)
        assert np.array_equal(loaded.prob, hpat.prob)
        assert np.array_equal(loaded.alias, hpat.alias)
        assert np.array_equal(loaded_sizes, sizes)
        assert loaded.aux.max_size == hpat.aux.max_size

    def test_identical_draws(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "index.npz"
        persist.save_hpat(path, hpat, graph, sizes, weight_desc=model.describe())
        loaded, _ = persist.load_hpat(path, graph, weight_desc=model.describe())
        v = int(np.argmax(graph.degrees()))
        d = graph.out_degree(v)
        r1, r2 = make_rng(0), make_rng(0)
        for s in (1, d // 2, d):
            assert hpat.sample(v, s, r1) == loaded.sample(v, s, r2)

    def test_wrong_graph_rejected(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "index.npz"
        persist.save_hpat(path, hpat, graph, sizes, weight_desc=model.describe())
        other = TemporalGraph.from_stream(
            temporal_powerlaw(20, 100, seed=99)
        )
        with pytest.raises(GraphFormatError, match="different graph"):
            persist.load_hpat(path, other, weight_desc=model.describe())

    def test_wrong_weights_rejected(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "index.npz"
        persist.save_hpat(path, hpat, graph, sizes, weight_desc=model.describe())
        with pytest.raises(GraphFormatError, match="weights"):
            persist.load_hpat(path, graph, weight_desc="linear_rank")

    @pytest.mark.parametrize("mmap_mode", [None, "r"])
    @pytest.mark.parametrize("desc", ["", "décroissance exponentielle τ=20"])
    def test_any_weight_description_round_trips(self, setup, tmp_path,
                                                mmap_mode, desc):
        """An empty ``np.bytes_`` is stored one NUL byte wide: "" must
        come back as "", and a non-ASCII text as itself."""
        graph, _, hpat, sizes = setup
        path = tmp_path / "index.npz"
        persist.save_hpat(path, hpat, graph, sizes, weight_desc=desc,
                          compressed=mmap_mode is None)
        loaded, _ = persist.load_hpat(path, graph, weight_desc=desc,
                                      mmap_mode=mmap_mode)
        assert np.array_equal(loaded.c, hpat.c)
        assert isinstance(loaded.c, np.memmap) == (mmap_mode is not None)
        with pytest.raises(GraphFormatError, match="weights"):
            persist.load_hpat(path, graph, weight_desc=desc + "x",
                              mmap_mode=mmap_mode)

    def test_pat_container_rejected_as_hpat(self, setup, tmp_path):
        graph, model, _, _ = setup
        pat = build_pat(graph, model.compute(graph))
        path = tmp_path / "pat.npz"
        persist.save_pat(path, pat, graph)
        with pytest.raises(GraphFormatError, match="HPAT"):
            persist.load_hpat(path, graph)


class TestPatRoundtrip:
    def test_identical_draws(self, setup, tmp_path):
        graph, model, _, _ = setup
        pat = build_pat(graph, model.compute(graph))
        path = tmp_path / "pat.npz"
        persist.save_pat(path, pat, graph)
        loaded = persist.load_pat(path, graph)
        v = int(np.argmax(graph.degrees()))
        r1, r2 = make_rng(3), make_rng(3)
        assert pat.sample(v, graph.out_degree(v), r1) == loaded.sample(
            v, graph.out_degree(v), r2
        )


def _save_v1(path, hpat, graph, sizes, weight_desc, monkeypatch):
    """A container as format v1 wrote it: version 1, ``alias`` int64."""
    wide = HierarchicalPAT(hpat.indptr, hpat.c, hpat.prob,
                           hpat.alias.astype(np.int64), hpat.lvl_ptr,
                           hpat.lvl_base, hpat.aux)
    with monkeypatch.context() as m:
        m.setattr(persist, "FORMAT_VERSION", 1)
        persist.save_hpat(path, wide, graph, sizes, weight_desc=weight_desc)


class TestFormatV2:
    """v2 stores the int32 ``alias`` the index holds in memory."""

    def test_alias_is_stored_int32(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "index.npz"
        persist.save_hpat(path, hpat, graph, sizes, weight_desc=model.describe())
        with np.load(path) as data:
            assert int(data["version"]) == 2
            assert data["alias"].dtype == np.int32

    def test_v1_container_refused_naming_both_versions(self, setup, tmp_path,
                                                       monkeypatch):
        graph, model, hpat, sizes = setup
        path = tmp_path / "v1.npz"
        _save_v1(path, hpat, graph, sizes, model.describe(), monkeypatch)
        for mmap_mode in (None, "r"):
            with pytest.raises(GraphFormatError, match="format v1, expected v2"):
                persist.load_hpat(path, graph, weight_desc=model.describe(),
                                  mmap_mode=mmap_mode)

    def test_engine_cache_over_v1_rebuilds_and_overwrites(self, small_graph,
                                                          tmp_path, monkeypatch):
        spec = exponential_walk(scale=20.0)
        cache = tmp_path / "warm.npz"
        built = TeaEngine(small_graph, spec)
        built.prepare()
        _save_v1(cache, built.index, small_graph, built.candidate_sizes,
                 spec.weight_model.describe(), monkeypatch)
        engine = TeaEngine(small_graph, spec, index_cache_path=str(cache))
        engine.prepare()
        assert engine.construction_report is not None  # rebuilt, not loaded
        assert engine.index.alias.dtype == np.int32
        with np.load(cache) as data:
            assert int(data["version"]) == 2
            assert data["alias"].dtype == np.int32
        warm = TeaEngine(small_graph, spec, index_cache_path=str(cache))
        warm.prepare()
        assert warm.construction_report is None  # the overwrite loads

    def test_mmap_load_walks_like_the_in_memory_index(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "raw.npz"
        persist.save_hpat(path, hpat, graph, sizes,
                          weight_desc=model.describe(), compressed=False)
        loaded, loaded_sizes = persist.load_hpat(
            path, graph, weight_desc=model.describe(), mmap_mode="r")
        assert isinstance(loaded.alias, np.memmap)
        spec = exponential_walk(scale=20.0)
        walks = [
            BatchTeaEngine.from_prepared(graph, spec, index, cand).run(
                Workload(walks_per_vertex=3, max_length=8), seed=11,
                record_paths=True)
            for index, cand in ((hpat, sizes), (loaded, loaded_sizes))]
        assert walks[0].total_steps > 0
        assert [p.hops for p in walks[0].paths] == [p.hops for p in walks[1].paths]
        assert walks[0].counters.snapshot() == walks[1].counters.snapshot()


class TestEngineWarmStart:
    def test_second_engine_loads_cache(self, small_graph, tmp_path):
        cache = str(tmp_path / "warm.npz")
        spec = exponential_walk(scale=20.0)
        wl = Workload(max_length=5, max_walks=10)

        first = TeaEngine(small_graph, spec, index_cache_path=cache)
        result_a = first.run(wl, seed=7)
        assert first.construction_report is not None  # built fresh

        second = TeaEngine(small_graph, spec, index_cache_path=cache)
        result_b = second.run(wl, seed=7)
        assert second.construction_report is None  # loaded, not built
        assert [p.hops for p in result_a.paths] == [p.hops for p in result_b.paths]

    def test_stale_cache_rebuilt(self, small_graph, tmp_path):
        cache = str(tmp_path / "warm.npz")
        TeaEngine(small_graph, exponential_walk(scale=20.0),
                  index_cache_path=cache).prepare()
        # Different weight model: the cache must be rejected and rebuilt.
        engine = TeaEngine(small_graph, linear_walk(), index_cache_path=cache)
        engine.prepare()
        assert engine.construction_report is not None

    def test_fingerprint_stability(self, small_graph):
        a = persist.graph_fingerprint(small_graph)
        b = persist.graph_fingerprint(small_graph)
        assert a == b
        other = TemporalGraph.from_stream(temporal_powerlaw(20, 100, seed=1))
        assert persist.graph_fingerprint(other) != a


class TestMmapLoading:
    def test_uncompressed_roundtrip_mmaps(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "raw.npz"
        persist.save_hpat(path, hpat, graph, sizes,
                          weight_desc=model.describe(), compressed=False)
        loaded, loaded_sizes = persist.load_hpat(
            path, graph, weight_desc=model.describe(), mmap_mode="r"
        )
        # The flat arrays really are memory-mapped views of the file.
        assert isinstance(loaded.c, np.memmap)
        assert isinstance(loaded.prob, np.memmap)
        assert isinstance(loaded_sizes, np.memmap)
        assert np.array_equal(loaded.c, hpat.c)
        assert np.array_equal(loaded.alias, hpat.alias)
        assert np.array_equal(loaded_sizes, sizes)

    def test_mmap_draws_identical(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "raw.npz"
        persist.save_hpat(path, hpat, graph, sizes,
                          weight_desc=model.describe(), compressed=False)
        loaded, _ = persist.load_hpat(path, graph,
                                      weight_desc=model.describe(),
                                      mmap_mode="r")
        v = int(np.argmax(graph.degrees()))
        d = graph.out_degree(v)
        r1, r2 = make_rng(0), make_rng(0)
        for s in (1, d // 2, d):
            assert hpat.sample(v, s, r1) == loaded.sample(v, s, r2)

    def test_compressed_container_falls_back_to_copy(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "compressed.npz"
        persist.save_hpat(path, hpat, graph, sizes,
                          weight_desc=model.describe(), compressed=True)
        loaded, loaded_sizes = persist.load_hpat(
            path, graph, weight_desc=model.describe(), mmap_mode="r"
        )
        assert not isinstance(loaded.c, np.memmap)
        assert np.array_equal(loaded.c, hpat.c)
        assert np.array_equal(loaded_sizes, sizes)

    def test_mmap_mode_still_rejects_stale(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "raw.npz"
        persist.save_hpat(path, hpat, graph, sizes,
                          weight_desc=model.describe(), compressed=False)
        other = TemporalGraph.from_stream(temporal_powerlaw(20, 100, seed=1))
        with pytest.raises(GraphFormatError):
            persist.load_hpat(path, other, weight_desc=model.describe(),
                              mmap_mode="r")
        with pytest.raises(GraphFormatError):
            persist.load_hpat(path, graph, weight_desc="something-else",
                              mmap_mode="r")

    def test_mmap_npz_arrays_missing_member(self, setup, tmp_path):
        graph, model, hpat, sizes = setup
        path = tmp_path / "raw.npz"
        persist.save_hpat(path, hpat, graph, sizes,
                          weight_desc=model.describe(), compressed=False)
        assert persist.mmap_npz_arrays(path, ("no_such_member",)) is None
