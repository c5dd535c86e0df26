"""TeaSession: query serving with engine reuse."""

import numpy as np
import pytest

from repro.engines import Workload
from repro.engines.session import TeaSession
from repro.sampling.counters import CostCounters
from repro.telemetry import NULL_PROFILER
from repro.walks.apps import exponential_walk, temporal_node2vec, unbiased_walk


@pytest.fixture
def session(small_graph):
    return TeaSession(small_graph, max_engines=2)


class TestCaching:
    def test_repeat_query_hits(self, session):
        wl = Workload(max_length=5, max_walks=10)
        spec = exponential_walk(scale=20.0)
        session.query(spec, wl, seed=0)
        session.query(spec, wl, seed=1)
        assert session.stats.engine_builds == 1
        assert session.stats.engine_hits == 1
        assert session.stats.hit_rate == 0.5

    def test_equivalent_specs_share_engine(self, session):
        wl = Workload(max_length=5, max_walks=5)
        session.query(exponential_walk(scale=20.0), wl)
        session.query(exponential_walk(scale=20.0), wl)  # fresh object, same key
        assert session.stats.engine_builds == 1

    def test_different_windows_build_separately(self, session):
        wl = Workload(max_length=5, max_walks=5)
        session.query(unbiased_walk(), wl)
        session.query(unbiased_walk(time_window=(0.0, 100.0)), wl)
        assert session.stats.engine_builds == 2

    def test_beta_parameters_distinguish(self, session):
        """Two β, two engines — and one index, which β does not touch."""
        wl = Workload(max_length=5, max_walks=5)
        session.query(temporal_node2vec(p=0.5, q=2.0, scale=20.0), wl)
        session.query(temporal_node2vec(p=0.25, q=2.0, scale=20.0), wl)
        assert session.stats.engine_builds == 2
        assert session.stats.index_builds == 1
        first, second = session._engines.values()
        assert first is not second and first.index is second.index

    def test_lru_eviction(self, session):
        wl = Workload(max_length=3, max_walks=5)
        session.query(exponential_walk(scale=10.0), wl)
        session.query(exponential_walk(scale=20.0), wl)
        session.query(exponential_walk(scale=30.0), wl)  # evicts scale=10
        assert len(session) == 2
        assert session.stats.evictions == 1
        session.query(exponential_walk(scale=10.0), wl)  # rebuilt
        assert session.stats.engine_builds == 4

    def test_bad_capacity(self, small_graph):
        with pytest.raises(ValueError):
            TeaSession(small_graph, max_engines=0)


class TestResults:
    def test_results_match_direct_engine(self, small_graph):
        from repro.engines.batch import BatchTeaEngine

        wl = Workload(max_length=8, max_walks=20)
        spec = unbiased_walk()
        direct = BatchTeaEngine(small_graph, spec).run(wl, seed=5)
        via_session = TeaSession(small_graph).query(spec, wl, seed=5)
        assert [p.hops for p in direct.paths] == [p.hops for p in via_session.paths]

    def test_scalar_mode(self, small_graph):
        session = TeaSession(small_graph, engine="tea")
        result = session.query(unbiased_walk(), Workload(max_length=4, max_walks=5))
        assert result.num_walks == 5

    def test_resident_bytes_tracks_cache(self, session):
        wl = Workload(max_length=3, max_walks=3)
        assert session.resident_index_bytes() == 0
        session.query(unbiased_walk(), wl)
        one = session.resident_index_bytes()
        assert one > 0
        session.query(exponential_walk(scale=15.0), wl)
        assert session.resident_index_bytes() > one

    def test_snapshot_keys(self, session):
        session.query(unbiased_walk(), Workload(max_length=2, max_walks=2))
        snap = session.stats.snapshot()
        assert {"queries", "engine_hits", "engine_builds", "hit_rate"} <= set(snap)


class TestByteBudget:
    """Eviction under a resident-index byte budget (serving config)."""

    def _specs(self):
        return [exponential_walk(scale=s) for s in (10.0, 20.0, 30.0)]

    def test_zero_budget_keeps_exactly_one(self, small_graph):
        session = TeaSession(small_graph, max_engines=8, max_bytes=0)
        wl = Workload(max_length=4, max_walks=5)
        for spec in self._specs():
            session.query(spec, wl)
            assert len(session) == 1  # never evicted below the newest
        assert session.stats.engine_builds == 3
        assert session.stats.evictions == 2
        assert session.resident_index_bytes() > 0  # budget floor, not zero

    def test_tiny_budget_tracks_one_index(self, small_graph):
        probe = TeaSession(small_graph, max_engines=8)
        probe.query(exponential_walk(scale=10.0), Workload(max_length=4, max_walks=5))
        one_index = probe.resident_index_bytes()
        probe.close()

        session = TeaSession(small_graph, max_engines=8, max_bytes=one_index)
        wl = Workload(max_length=4, max_walks=5)
        for spec in self._specs():
            session.query(spec, wl)
        assert len(session) == 1
        assert session.resident_index_bytes() <= one_index

    def test_generous_budget_never_evicts(self, small_graph):
        session = TeaSession(small_graph, max_engines=8, max_bytes=1 << 40)
        wl = Workload(max_length=4, max_walks=5)
        for spec in self._specs():
            session.query(spec, wl)
        assert len(session) == 3
        assert session.stats.evictions == 0

    def test_negative_budget_rejected(self, small_graph):
        with pytest.raises(ValueError):
            TeaSession(small_graph, max_bytes=-1)

    def test_hit_rate_accounting_survives_evictions(self, small_graph):
        session = TeaSession(small_graph, max_engines=1)
        wl = Workload(max_length=4, max_walks=5)
        a = exponential_walk(scale=10.0)
        b = exponential_walk(scale=20.0)
        session.query(a, wl)   # build a
        session.query(a, wl)   # hit
        session.query(b, wl)   # build b, evicts a
        session.query(a, wl)   # rebuild a (must NOT count as a hit)
        assert session.stats.queries == 4
        assert session.stats.engine_hits == 1
        assert session.stats.engine_builds == 3
        assert session.stats.evictions == 2
        assert session.stats.hit_rate == 0.25


class TestSpecKeying:
    """The cache key must reflect weight-model *structure*."""

    def test_custom_parameters_with_distinct_fns_do_not_alias(self, small_graph):
        from repro.core.weights import WeightModel
        from repro.walks.spec import CustomParameter, WalkSpec

        session = TeaSession(small_graph, max_engines=4)
        wl = Workload(max_length=4, max_walks=5)
        half = CustomParameter(fn=lambda g, p, c: 0.5, beta_max=1.0, name="half")
        full = CustomParameter(fn=lambda g, p, c: 1.0, beta_max=1.0, name="full")
        wm = WeightModel(kind="uniform")
        session.query(WalkSpec("a", wm, dynamic_parameter=half), wl)
        session.query(WalkSpec("b", wm, dynamic_parameter=full), wl)
        # Same beta_max, same type, different functions: two engines.
        assert session.stats.engine_builds == 2
        session.query(WalkSpec("c", wm, dynamic_parameter=half), wl)
        assert session.stats.engine_hits == 1

    def test_weight_model_scale_distinguishes(self, small_graph):
        session = TeaSession(small_graph, max_engines=4)
        wl = Workload(max_length=4, max_walks=5)
        session.query(exponential_walk(scale=10.0), wl)
        session.query(exponential_walk(scale=10.0 + 1e-9), wl)
        assert session.stats.engine_builds == 2

    def test_spec_name_is_not_structure(self, small_graph):
        from repro.walks.spec import WalkSpec

        session = TeaSession(small_graph, max_engines=4)
        wl = Workload(max_length=4, max_walks=5)
        spec = exponential_walk(scale=10.0)
        renamed = WalkSpec("other-label", spec.weight_model,
                           spec.dynamic_parameter, spec.time_window)
        session.query(spec, wl)
        session.query(renamed, wl)
        assert session.stats.engine_builds == 1


class TestEngineKinds:
    def test_unknown_kind_rejected(self, small_graph):
        with pytest.raises(ValueError):
            TeaSession(small_graph, engine="tea-warp")

    def test_scalar_kind_maps_to_vectorised_false(self, small_graph):
        """``engine="tea"`` is the whole scalar switch (the
        ``vectorised=`` keyword it superseded is gone)."""
        from repro.engines import TeaEngine

        session = TeaSession(small_graph, engine="tea")
        assert session.engine_kind == "tea"
        assert isinstance(session.engine_for(unbiased_walk()), TeaEngine)
        with pytest.raises(TypeError):
            TeaSession(small_graph, vectorised=False)

    def test_parallel_kind_invariant_across_configs(self, small_graph):
        """Session-served tea-parallel results depend only on the query
        seed — never on backend or chunking (the PR 7 contract, now
        holding through the session layer)."""
        wl = Workload(max_length=6, max_walks=20)
        spec = exponential_walk(scale=20.0)
        outcomes = []
        for kwargs in (
            {"backend": "serial", "chunk_size": 4},
            {"backend": "thread", "workers": 2, "chunk_size": 2},
        ):
            with TeaSession(
                small_graph, engine="tea-parallel", engine_kwargs=kwargs
            ) as session:
                result = session.query(spec, wl, seed=5)
                outcomes.append([p.hops for p in result.paths])
        assert outcomes[0] == outcomes[1]


class TestLifecycle:
    def test_eviction_closes_engine(self, small_graph):
        session = TeaSession(small_graph, max_engines=1)
        wl = Workload(max_length=4, max_walks=5)
        session.query(exponential_walk(scale=10.0), wl)
        closed = []
        engine = next(iter(session._engines.values()))
        engine.close = lambda: closed.append("evicted")  # instance spy
        session.query(exponential_walk(scale=20.0), wl)  # evicts the first
        assert closed == ["evicted"]

    def test_close_empties_and_closes_all(self, small_graph):
        session = TeaSession(small_graph, max_engines=4)
        wl = Workload(max_length=4, max_walks=5)
        session.query(exponential_walk(scale=10.0), wl)
        session.query(exponential_walk(scale=20.0), wl)
        closed = []
        for engine in session._engines.values():
            engine.close = lambda: closed.append(1)
        session.close()
        assert len(session) == 0
        assert len(closed) == 2
        assert session.resident_index_bytes() == 0
        # close() is not an eviction for accounting purposes.
        assert session.stats.evictions == 0

    def test_context_manager_closes(self, small_graph):
        with TeaSession(small_graph, max_engines=2) as session:
            session.query(exponential_walk(scale=10.0),
                          Workload(max_length=4, max_walks=5))
            assert len(session) == 1
        assert len(session) == 0


#: The engine configurations a session can serve, one id each.
SHARING_KINDS = {
    "tea": ("tea", {}),
    "tea-batch": ("tea-batch", {}),
    "thread": ("tea-parallel", {"backend": "thread", "workers": 2}),
    "process": ("tea-parallel", {"backend": "process", "workers": 2}),
}
EXP = exponential_walk(scale=20.0)
N2V_A = temporal_node2vec(p=0.5, q=2.0, scale=20.0)
N2V_B = temporal_node2vec(p=0.25, q=2.0, scale=20.0)


def _walks(engine):
    """Fixed-seed walks and counters of ``run`` and ``run_lanes``."""
    result = engine.run(Workload(max_length=6, max_walks=24), seed=3)
    counters = CostCounters()
    starts = np.arange(0, 48, 2, dtype=np.int64)
    lanes = engine.run_lanes(starts, np.arange(starts.size, dtype=np.uint64) * 977,
                             6, counters=counters)
    return ([p.hops for p in result.paths], result.counters.snapshot(),
            lanes.lengths.tolist(), lanes.hop_vertex.tolist(),
            lanes.hop_time.tolist(), counters.snapshot())


@pytest.fixture(params=list(SHARING_KINDS))
def kind(request):
    return SHARING_KINDS[request.param]


class TestIndexSharing:
    """Engines that differ only in β share one prepared index: β is
    applied at walk time, the index depends on window and weights."""

    def _alone(self, graph, kind, spec):
        with TeaSession(graph, engine=kind[0], engine_kwargs=kind[1]) as session:
            return _walks(session.engine_for(spec))

    def test_siblings_share_graph_index_and_candidates(self, small_graph, kind):
        with TeaSession(small_graph, engine=kind[0], engine_kwargs=kind[1]) as session:
            donor, a, b = (session.engine_for(s) for s in (EXP, N2V_A, N2V_B))
            for sibling in (a, b):
                assert sibling.index is donor.index
                assert sibling.graph is donor.graph
                assert sibling.candidate_sizes is donor.candidate_sizes
            assert [e.spec for e in (donor, a, b)] == [EXP, N2V_A, N2V_B]
            assert session.stats.engine_builds == 3
            assert session.stats.index_builds == 1

    def test_sibling_walks_equal_an_engine_built_alone(self, small_graph, kind):
        with TeaSession(small_graph, engine=kind[0], engine_kwargs=kind[1]) as session:
            # The donor walks first, so a process pool it started is live
            # when its siblings walk.
            for spec in (EXP, N2V_A, N2V_B):
                engine = session.engine_for(spec)
                assert engine.index is session.engine_for(EXP).index
                assert _walks(engine) == self._alone(small_graph, kind, spec)

    def test_process_sibling_walks_after_donor_pool_started(self, small_graph):
        kind = SHARING_KINDS["process"]
        with TeaSession(small_graph, engine=kind[0], engine_kwargs=kind[1]) as session:
            donor = session.engine_for(EXP)
            donor.run(Workload(max_length=6, max_walks=24), seed=1)
            assert donor.last_backend == "process" and donor._pools["process"].warm
            sibling = session.engine_for(N2V_A)
            assert sibling.index is donor.index
            assert sibling._pools == {} and sibling._pools is not donor._pools
            assert sibling.last_pool["builds"] == 0
            assert _walks(sibling) == self._alone(small_graph, kind, N2V_A)
            assert sibling.last_backend == "process"
            assert sibling._pools["process"] is not donor._pools["process"]

    def test_window_and_weights_key_the_index(self, small_graph, kind):
        window = (0.0, 120.0)
        with TeaSession(small_graph, max_engines=8, engine=kind[0],
                        engine_kwargs=kind[1]) as session:
            donor = session.engine_for(exponential_walk(scale=20.0, time_window=window))
            sibling = session.engine_for(
                temporal_node2vec(p=0.5, q=2.0, scale=20.0, time_window=window))
            assert sibling.graph is donor.graph
            assert donor.graph is not small_graph
            assert donor.graph.num_edges < small_graph.num_edges
            assert sibling.index is donor.index
            other_window = session.engine_for(
                temporal_node2vec(p=0.5, q=2.0, scale=20.0, time_window=(0.0, 150.0)))
            other_scale = session.engine_for(temporal_node2vec(p=0.5, q=2.0, scale=25.0))
            indexes = {id(e.index) for e in (donor, other_window, other_scale)}
            assert len(indexes) == 3
            assert session.stats.index_builds == 3
            assert session.stats.engine_builds == 4

    def test_evicting_the_donor_leaves_the_sibling_walking(self, small_graph, kind):
        with TeaSession(small_graph, max_engines=2, engine=kind[0],
                        engine_kwargs=kind[1]) as session:
            donor = session.engine_for(EXP)
            _walks(donor)
            sibling = session.engine_for(N2V_A)
            assert sibling.index is donor.index
            _walks(sibling)
            session.engine_for(exponential_walk(scale=30.0))  # evicts the donor
            assert donor not in session._engines.values()
            assert sibling in session._engines.values()
            del donor
            assert _walks(sibling) == self._alone(small_graph, kind, N2V_A)

    def test_with_spec_refuses_another_window_or_weights(self, small_graph):
        from repro.engines.batch import BatchTeaEngine

        engine = BatchTeaEngine(small_graph, EXP)
        for spec in (exponential_walk(scale=21.0),
                     exponential_walk(scale=20.0, time_window=(0.0, 120.0))):
            with pytest.raises(ValueError):
                engine.with_spec(spec)
        sibling = engine.with_spec(N2V_A)
        assert sibling.recorder is NULL_PROFILER and sibling.profiler is NULL_PROFILER
        assert engine.spec is EXP

    def test_shared_index_is_counted_once(self, small_graph):
        with TeaSession(small_graph, max_engines=8) as probe:
            probe.engine_for(EXP)
            one_index = probe.resident_index_bytes()
        session = TeaSession(small_graph, max_engines=8, max_bytes=one_index)
        wl = Workload(max_length=4, max_walks=5)
        session.query(EXP, wl)
        session.query(N2V_A, wl)
        assert len(session) == 2
        assert session.stats.evictions == 0
        assert session.resident_index_bytes() == one_index
        snap = session.stats.snapshot()
        assert (snap["engine_builds"], snap["index_builds"]) == (2, 1)
        session.close()
