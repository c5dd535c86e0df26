"""Pinned-epoch bursts: the packed frontier loop against exact oracles.

Everything distributional here is checked against Γt(u) enumerated from
the raw edge list with Eq. 3's weights — not against another engine —
and the scalar ``walk_index`` loop is held to the same oracle, so the
two can only agree by both being right. On the carry-forest kinds the
two are also the same draw, hop for hop (``TestBitIdentity``); parity
between two of our own paths cannot catch a shared bias, so that gate is
beside the χ² checks, not instead of them.
"""

import sys
import tempfile
import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.weights import WeightModel
from repro.graph.edge_stream import EdgeStream
from repro.graph.generators import temporal_powerlaw
from repro.rng import LaneRng, make_rng, spawn_seeds
from repro.sampling.counters import CostCounters
from repro.streaming import snapshot
from repro.streaming.batch import StreamingTeaEngine
from repro.walks.spec import WalkSpec
from tests.conftest import chisquare_ok

KINDS = [("uniform", 1.0), ("linear_rank", 1.0), ("linear_time", 1.0),
         ("exponential", 6.0), ("exponential_decay", 6.0)]
#: Examples are a pure function of the test, so a chi-squared verdict is
#: too: no run-to-run flake budget to spend.
PROPERTY = settings(max_examples=30, deadline=None, derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])
DRAWS = 4000


def _spec(kind, scale):
    return WalkSpec(name=kind, weight_model=WeightModel(kind, scale))


@st.composite
def streams(draw):
    """``(src, dst, times, splits)``: a skewed source column (a hub and
    a tail of degree-1 vertices), destinations that include ids with no
    out-edges at all, optionally integer times with heavy ties,
    optionally repeated edges, optionally in clusters spread over
    ~6 000 scale units (far past float64's exponent range), cut into
    random batches."""
    num_vertices = draw(st.integers(2, 10))
    num_edges = draw(st.integers(1, 120))
    ties = draw(st.booleans())
    repeats = draw(st.booleans())
    far = draw(st.booleans())
    rng = make_rng(draw(st.integers(0, 2**31 - 1)))
    src = (num_vertices * rng.random(num_edges) ** 3).astype(np.int64)
    dst = rng.integers(0, num_vertices + 3, num_edges)
    times = (rng.integers(0, 12, num_edges).astype(float) if ties
             else rng.uniform(0.0, 300.0, num_edges))
    if far:  # seven clusters 6 000 apart: 6 000 units at KINDS' scale 6
        times += 6000.0 * rng.integers(0, 7, num_edges)
    if repeats:
        again = rng.integers(0, num_edges, num_edges // 2)
        src = np.concatenate([src, src[again]])
        dst = np.concatenate([dst, dst[again]])
        times = np.concatenate([times, times[again]])
    order = np.argsort(times, kind="stable")
    splits = draw(st.lists(st.integers(1, 40), min_size=0, max_size=6))
    return src[order], dst[order], times[order], splits


def _ingest(spec, src, dst, times, splits, **kwargs):
    engine = StreamingTeaEngine(spec, **kwargs)
    lo = 0
    for size in splits + [len(src)]:
        hi = min(lo + size, len(src))
        if lo < hi:
            engine.apply_batch(EdgeStream(src[lo:hi], dst[lo:hi], times[lo:hi],
                                          sort=False))
        lo = hi
    return engine


class EdgeOracle:
    """Γt(u) and its Eq. 3 distribution, enumerated from the edge list."""

    def __init__(self, kind, scale, src, dst, times):
        self.out = {}
        for u in np.unique(src).tolist():
            mine = np.flatnonzero(src == u)  # arrival order
            t = times[mine]
            if kind == "uniform":
                w = np.ones(t.size)
            elif kind == "linear_rank":
                w = np.arange(1.0, t.size + 1)
            elif kind == "linear_time":
                w = t - t[0] + 1.0
            else:  # log-weights; the sign is the kind
                w = (t - t[-1]) / scale if kind == "exponential" else (t[0] - t) / scale
            self.out[u] = (dst[mine], t, w, kind.startswith("exponential"))

    def count(self, u, t):
        return int((self.out[u][1] > t).sum()) if u in self.out else 0

    def hop(self, u, t):
        """``{(dst, time): probability}`` of the next edge out of ``u``
        after time ``t``; empty at a dead end."""
        if u not in self.out:
            return {}
        dst, times, w, logs = self.out[u]
        keep = times > t
        if not keep.any():
            return {}
        w = w[keep]
        if logs:
            w = np.exp(w - w.max())
        probs = {}
        for d, at, p in zip(dst[keep].tolist(), times[keep].tolist(),
                            (w / w.sum()).tolist()):
            probs[(d, at)] = probs.get((d, at), 0.0) + p
        return probs

    def two_hops(self, u):
        """``{hops tuple: probability}`` of walks of at most two hops."""
        joint = {}
        for (v1, t1), p1 in self.hop(u, -np.inf).items():
            second = self.hop(v1, t1)
            if not second:
                joint[((v1, t1),)] = p1
            for (v2, t2), p2 in second.items():
                joint[((v1, t1), (v2, t2))] = p1 * p2
        return joint


def _fits(outcomes, exact):
    """Chi-squared of observed outcomes (hashable) against ``exact``."""
    seen = Counter(outcomes)
    assert set(seen) <= set(exact), set(seen) - set(exact)
    keys = sorted(exact)
    return chisquare_ok(np.array([seen[k] for k in keys]),
                        np.array([exact[k] for k in keys]), alpha=1e-6)


def _hop_tuples(frontier):
    return [
        tuple(zip(v[:n], t[:n])) for v, t, n in zip(
            frontier.hop_vertex.tolist(), frontier.hop_time.tolist(),
            frontier.lengths.tolist())
    ]


class _Lane:
    """Lane ``i`` of a ``LaneRng`` behind ``Generator.random()``, the one
    call the scalar ``walk_index`` draws with."""

    def __init__(self, lanes, i):
        self.lanes, self.lane = lanes, np.array([i])

    def random(self):
        return float(self.lanes.uniform(self.lane)[0])


def _same(a, b):
    return (np.array_equal(a.lengths, b.lengths)
            and np.array_equal(a.hop_vertex, b.hop_vertex)
            and np.array_equal(a.hop_time, b.hop_time))


class TestCandidateCounts:
    @PROPERTY
    @given(streams(), st.sampled_from(KINDS))
    def test_equal_scalar_and_enumerated_for_every_vertex_and_time(self, stream, kind):
        src, dst, times, splits = stream
        view = _ingest(_spec(*kind), src, dst, times, splits).pin()
        oracle = EdgeOracle(*kind, src, dst, times)
        pack = view.packed()
        distinct = np.unique(times)
        probes = np.concatenate([distinct, (distinct[1:] + distinct[:-1]) / 2,
                                 [-np.inf, np.inf]])
        vertices = np.arange(-2, int(max(src.max(), dst.max())) + 3)
        v, t = (a.ravel() for a in np.meshgrid(vertices, probes))
        first, edge, take, _ = pack.candidates(v, t)
        got = pack.seg_start[edge] - pack.seg_start[first] + take
        for vi, ti, count in zip(v.tolist(), t.tolist(), got.tolist()):
            assert count == oracle.count(vi, ti), (vi, ti)
            assert count == view.candidate_count(
                vi, None if ti == -np.inf else ti), (vi, ti)


class TestDistribution:
    @PROPERTY
    @given(streams(), st.sampled_from(KINDS), st.integers(0, 2**31 - 1))
    def test_first_and_second_hop_match_the_enumerated_oracle(self, stream, kind, seed):
        src, dst, times, splits = stream
        view = _ingest(_spec(*kind), src, dst, times, splits).pin()
        oracle = EdgeOracle(*kind, src, dst, times)
        hub = int(np.bincount(src).argmax())
        exact = oracle.two_hops(hub)
        first_hop = oracle.hop(hub, -np.inf)

        frontier = view.run_lanes(np.full(DRAWS, hub),
                                  spawn_seeds(make_rng(seed), DRAWS), 2)
        packed = _hop_tuples(frontier)
        assert _fits([hops[0] for hops in packed], first_hop)
        assert _fits(packed, exact)

        rng = make_rng(seed)
        scalar = [tuple(snapshot.walk_index(view, hub, 2, rng).hops[1:])
                  for _ in range(DRAWS // 4)]
        assert _fits([hops[0] for hops in scalar], first_hop)
        assert _fits(scalar, exact)

    def test_decay_far_past_float_range_still_samples_the_newest_edges(self):
        """5 000 scale units of decay: a flat prefix sum of raw weights is
        0.0 long before the newest edges, a block's masses with its
        exponent are not."""
        rng = make_rng(5)
        n = 600
        times = np.sort(rng.uniform(0.0, 5000.0, n))
        src = np.zeros(n, dtype=np.int64)
        dst = rng.integers(2, 9, n)
        # Vertex 1 hands the walker to vertex 0 just before 0's newest edges.
        arrive = float(times[-8] - 1e-3)
        at = int(np.searchsorted(times, arrive))
        src, dst, times = (np.insert(a, at, x) for a, x in
                           ((src, 1), (dst, 0), (times, arrive)))
        kind = ("exponential_decay", 1.0)
        view = _ingest(_spec(*kind), src, dst, times, [100, 7, 250]).pin()
        exact = EdgeOracle(*kind, src, dst, times).two_hops(1)
        assert len(exact) == 8 and all(len(hops) == 2 for hops in exact)
        with np.errstate(under="ignore"):
            assert np.exp(-times[-8] / 1.0) == 0.0  # what a flat sum would add up

        frontier = view.run_lanes(np.full(20_000, 1),
                                  spawn_seeds(make_rng(9), 20_000), 2)
        assert np.isfinite(frontier.hop_time[:, :2]).all()
        assert _fits(_hop_tuples(frontier), exact)
        # From vertex 0 itself everything is a candidate and the oldest
        # edges carry all the mass; the draw must still be finite and exact.
        whole = view.run_lanes(np.zeros(4000, dtype=np.int64),
                               spawn_seeds(make_rng(10), 4000), 1)
        assert _fits([hops[0] for hops in _hop_tuples(whole)],
                     EdgeOracle(*kind, src, dst, times).hop(0, -np.inf))

    def test_decay_neighbours_thousands_of_exponents_apart_never_overflow(self):
        """Vertex 1 spans the whole stream (exponents from 0 down to
        about -7 000), its neighbour in id order holds only the newest
        edges (exponents near 0), and
        both walk in one burst, so the narrow lanes sit converged while
        the wide ones still bisect: every ``ldexp`` must stay inside the
        lane's own segments, where the exponent difference is <= 0."""
        rng = make_rng(11)
        n = 500
        times = np.sort(rng.uniform(0.0, 5000.0, n))
        src = np.ones(n, dtype=np.int64)
        src[-6:] = 0
        src[rng.random(n) < 0.1] = 2
        dst = rng.integers(0, 3, n)
        kind = ("exponential_decay", 1.0)
        view = _ingest(_spec(*kind), src, dst, times, [100, 7, 250]).pin()
        pack = view.packed()
        assert pack.seg_exp[:-1].max() - pack.seg_exp[:-1].min() > 2000
        starts = rng.integers(0, 3, 6000)
        with np.errstate(over="raise", invalid="raise"):
            out = view.run_lanes(starts, spawn_seeds(make_rng(12), 6000), 30)
        assert out.lengths.max() > 2
        oracle = EdgeOracle(*kind, src, dst, times)
        hops = _hop_tuples(out)
        for u in (0, 1, 2):
            assert _fits([h[0] for h, s in zip(hops, starts.tolist()) if s == u],
                         oracle.hop(u, -np.inf))


class TestFloatRange:
    """Raw weights past float64's range, through ``run_walks``, ``walk()``
    and a WAL-recovered engine: Eq. 3, not the newest edge every time."""

    @staticmethod
    def _three_paths(kind, edges, batches, start, hops, tmp_path):
        src, dst, times = (np.array(col) for col in zip(*edges))
        oracle = EdgeOracle(*kind, src, dst, times)
        exact = oracle.two_hops(start) if hops == 2 else oracle.hop(start, -np.inf)
        with StreamingTeaEngine(_spec(*kind), wal_dir=tmp_path) as engine:
            lo = 0
            for size in batches:
                engine.apply_batch(EdgeStream(src[lo:lo + size], dst[lo:lo + size],
                                              times[lo:lo + size], sort=False))
                lo += size
            burst = engine.run_walks(np.full(DRAWS, start), hops, seed=1)
            single = [engine.walk(start, hops, seed=s) for s in range(DRAWS // 4)]
        with StreamingTeaEngine(_spec(*kind), wal_dir=tmp_path) as recovered:
            replayed = recovered.run_walks(np.full(DRAWS, start), hops, seed=2)
        for paths in (burst, single, replayed):
            got = [tuple(p.hops[1:]) for p in paths]
            assert _fits(got if hops == 2 else [h[0] for h in got], exact)
        return exact, engine

    @pytest.mark.parametrize("batches", [[3], [1, 2], [1, 1, 1]])
    def test_exponential_edges_800_scale_units_apart(self, batches, tmp_path):
        """Edges at t = 0, 800 and 800.5, scale 1: Eq. 3 gives the newest
        0.62 and the middle one 0.38, though e^800 is not a float64."""
        edges = [(0, 1, 0.0), (0, 2, 800.0), (0, 3, 800.5)]
        exact, engine = self._three_paths(("exponential", 1.0), edges, batches,
                                          0, 1, tmp_path)
        assert abs(exact[(3, 800.5)] - 1 / (1 + np.exp(-0.5))) < 1e-12
        assert any(b.exp for b in engine.index.vertices[0].blocks)

    def test_decay_carry_stops_at_the_span(self, tmp_path):
        """Decay, scale 1: vertex 0's edges at 0 and 1, then 800 and
        800.5. The second batch may absorb the first by size, but the
        merged block would span 800.5 scale units and its newest masses
        would round to 0, so the carry stops. A walker handed to 0 at
        t = 799 sees only the newest two: 0.62 and 0.38."""
        edges = [(0, 1, 0.0), (0, 2, 1.0), (5, 0, 799.0), (0, 3, 800.0),
                 (0, 4, 800.5)]
        exact, engine = self._three_paths(("exponential_decay", 1.0), edges,
                                          [2, 3], 5, 2, tmp_path)
        assert abs(exact[((0, 799.0), (3, 800.0))] - 1 / (1 + np.exp(-0.5))) < 1e-12
        blocks = engine.index.vertices[0].blocks
        assert [b.size for b in blocks] == [2, 2]
        assert blocks[0].exp != 0 and blocks[1].exp == 0


class TestBitIdentity:
    @PROPERTY
    @given(streams(), st.sampled_from(KINDS), st.integers(0, 2**31 - 1))
    def test_repacked_and_split_bursts_walk_the_same(self, stream, kind, seed):
        src, dst, times, splits = stream
        view = _ingest(_spec(*kind), src, dst, times, splits).pin()
        rng = make_rng(seed)
        starts = rng.integers(-1, int(src.max()) + 3, 64)
        seeds = spawn_seeds(rng, 64)
        whole = view.run_lanes(starts, seeds, 6)
        columns = {name: getattr(view.packed(), name).copy()
                   for name in snapshot._EpochPack.__slots__}

        view._reads.cached = None
        assert _same(view.run_lanes(starts, seeds, 6), whole)
        for name, column in columns.items():
            assert np.array_equal(getattr(view.packed(), name), column), name

        cut = int(rng.integers(0, 65))
        halves = [view.run_lanes(starts[part], seeds[part], 6)
                  for part in (slice(0, cut), slice(cut, None))]
        for name in ("lengths", "hop_vertex", "hop_time"):
            assert np.array_equal(
                np.concatenate([getattr(h, name) for h in halves]),
                getattr(whole, name)), name

    @PROPERTY
    @given(streams(), st.sampled_from(KINDS), st.integers(0, 2**31 - 1),
           st.sampled_from([1, 2**50 // 16]))
    def test_scalar_walk_is_its_lane_of_the_burst(self, stream, kind, seed, stride):
        """``walk_index`` on lane ``i``'s stream takes lane ``i``'s hops —
        the scalar step is the specification of the pack's draw: two
        uniforms a hop, none for the look that ends a walk, covered
        masses rescaled to the heaviest covered exponent. Held on a view
        pinned before later ingest and on the live index after it, ids
        dense or 2^50 apart, all five kinds."""
        src, dst, times, splits = stream
        src, dst = src * stride, dst * stride
        half = len(src) // 2
        engine = _ingest(_spec(*kind), src[:half], dst[:half], times[:half], splits)
        pinned = engine.pin()
        engine.apply_batch(EdgeStream(src[half:], dst[half:], times[half:],
                                      sort=False))
        rng = make_rng(seed)
        starts = rng.integers(-1, int(src.max()) // stride + 3, 64) * stride
        seeds = spawn_seeds(rng, 64)
        for view, index in ((pinned, pinned), (engine.pin(), engine.index)):
            out = view.run_lanes(starts, seeds, 6)
            lanes = LaneRng(seeds)
            scalar = [tuple(snapshot.walk_index(index, start, 6, _Lane(lanes, i)).hops[1:])
                      for i, start in enumerate(starts.tolist())]
            assert scalar == _hop_tuples(out)
            assert np.array_equal(lanes._ctr, 2 * out.lengths.astype(np.uint64))

    @pytest.mark.parametrize("kind", KINDS, ids=[k for k, _ in KINDS])
    def test_recovered_engine_walks_like_the_one_that_never_crashed(self, kind):
        stream = temporal_powerlaw(num_vertices=40, num_edges=700, seed=8,
                                   time_horizon=60.0)
        starts = np.arange(-1, 45)
        seeds = spawn_seeds(make_rng(3), starts.size)
        with tempfile.TemporaryDirectory() as tmp:
            with StreamingTeaEngine(_spec(*kind), wal_dir=tmp) as engine:
                engine.ingest(stream[:400], 90)
                engine.checkpoint()
                engine.ingest(stream[400:], 70)
                want = engine.pin().run_lanes(starts, seeds, 12)
            with StreamingTeaEngine(_spec(*kind), wal_dir=tmp) as recovered:
                assert _same(recovered.pin().run_lanes(starts, seeds, 12), want)
        assert want.lengths.max() > 1

    def test_readers_racing_ingest_and_each_other_for_the_one_cached_pack(self):
        """One reader holds an old epoch, two chase the newest, the writer
        ingests: the single cached pack changes hands constantly and no
        pinned burst may ever differ."""
        stream = temporal_powerlaw(num_vertices=40, num_edges=900, seed=2,
                                   time_horizon=100.0)
        engine = StreamingTeaEngine(_spec("exponential", 20.0), retain_epochs=64)
        engine.apply_batch(stream[:300])
        pinned = engine.pin()
        starts = np.arange(0, 40)
        seeds = spawn_seeds(make_rng(6), starts.size)
        reference = pinned.run_lanes(starts, seeds, 12)
        failures, done = [], threading.Event()

        def hold():
            while not done.is_set():
                if not _same(pinned.run_lanes(starts, seeds, 12), reference):
                    failures.append("pinned epoch drifted")
                    return

        def chase():
            while not done.is_set():
                view = engine.pin()
                if not _same(view.run_lanes(starts, seeds, 12),
                             view.run_lanes(starts, seeds, 12)):
                    failures.append(f"epoch {view.epoch} not repeatable")
                    return

        threads = [threading.Thread(target=fn) for fn in (hold, chase, chase)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for batch in stream[300:].batches(25):
                engine.apply_batch(batch)
        finally:
            done.set()
            for thread in threads:
                thread.join(60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not failures
        assert _same(pinned.run_lanes(starts, seeds, 12), reference)


class TestDeadEnds:
    """A start or a destination the view has no row for ends the walk."""

    def test_rowless_starts_mixed_into_a_burst(self):
        engine = StreamingTeaEngine(_spec("uniform", 1.0))
        # Active: 3, 5, 9. Destinations 4 (a gap), 11 (past the largest
        # id) and 0 (below the smallest) have no out-edges.
        engine.apply_batch(EdgeStream.from_edges([
            (3, 5, 1.0), (5, 9, 2.0), (9, 11, 3.0), (3, 4, 1.5), (5, 0, 2.5),
        ]))
        view = engine.pin()
        rowless = [-1, -(2**62), 0, 4, 10, 11, 12, 2**62]
        good = [3, 5, 9, 3, 5]
        seeds = spawn_seeds(make_rng(1), len(good))
        mixed_starts = np.array(rowless[:4] + good + rowless[4:])
        mixed_seeds = np.concatenate([np.arange(4), seeds, np.arange(4)])
        mixed = view.run_lanes(mixed_starts, mixed_seeds, 5)
        alone = view.run_lanes(np.array(good), seeds, 5)

        keep = slice(4, 4 + len(good))
        assert mixed.lengths[:4].tolist() + mixed.lengths[9:].tolist() == [0] * 8
        assert np.array_equal(mixed.lengths[keep], alone.lengths)
        assert np.array_equal(mixed.hop_vertex[keep], alone.hop_vertex)
        assert alone.lengths.tolist()[2] == 1  # 9 -> 11, and 11 is a dead end
        for start in rowless:
            assert view.walk(start, 5, seed=0).num_edges == 0
        for path in view.run_walks(mixed_starts, 5, seed=2):
            assert path.vertices[-1] in (0, 4, 11) or path.num_edges == 0

    def test_a_vertex_id_near_2_to_the_50_costs_what_its_edges_do(self):
        """Ingest accepts any non-negative int64 id; the pack must stay
        O(edges) — no table indexed by id."""
        big = 2**50
        engine = StreamingTeaEngine(_spec("uniform", 1.0))
        engine.apply_batch(EdgeStream.from_edges([
            (3, big, 1.0), (big, 7, 2.0), (big, 3, 2.5), (3, 5, 3.0),
        ]))
        view = engine.pin()
        pack = view.packed()
        assert sum(getattr(pack, name).nbytes for name in pack.__slots__) < 1024
        starts = np.array([3, big, big - 1, big + 1, 2**63 - 1] * 200)
        out = view.run_lanes(starts, np.arange(starts.size), 4)
        lengths = out.lengths.reshape(-1, 5)
        assert (lengths[:, 2:] == 0).all() and (lengths[:, :2] >= 1).all()
        through = out.hop_vertex[::5][out.hop_vertex[::5, 0] == big]
        assert through.size and set(through[:, 1].tolist()) == {3, 7}
        assert set(out.hop_vertex[1::5, 0].tolist()) == {3, 7}
        assert view.active_vertices() == [3, big]

    def test_an_empty_epoch_walks_nowhere(self):
        view = StreamingTeaEngine(_spec("uniform", 1.0)).pin()
        out = view.run_lanes(np.array([0, 7, -3]), np.arange(3), 4)
        assert out.lengths.tolist() == [0, 0, 0]
        assert view.active_vertices() == []


class TestHopColumns:
    """Hop columns cost what the longest walk took, not what the caller
    allowed (``/stream/walk`` bounds ``max_length`` from below only)."""

    @pytest.fixture
    def chain(self):
        engine = StreamingTeaEngine(_spec("linear_time", 1.0))
        engine.apply_batch(EdgeStream.from_edges(
            [(v, v + 1, float(v)) for v in range(99)]))
        return engine

    def test_columns_grow_with_the_walk_up_to_max_length(self, chain):
        view = chain.pin()
        starts, seeds = np.array([0, 60, 98, 99]), np.arange(4)
        out = view.run_lanes(starts, seeds, 70)
        assert out.lengths.tolist() == [70, 39, 1, 0]
        assert out.hop_vertex.shape == out.hop_time.shape == (4, 70)
        assert out.hop_vertex[0].tolist() == list(range(1, 71))
        assert out.hop_time[1, :39].tolist() == [float(v) for v in range(60, 99)]
        assert [p.vertices for p in view.run_walks(starts, 70)] == [
            list(range(0, 71)), list(range(60, 100)), [98, 99], [99]]

    def test_a_huge_max_length_allocates_for_the_hops_taken(self, chain):
        from repro.serve.streaming import StreamService

        view = chain.pin()
        starts, seeds = np.array([90, 95, 99]), np.arange(3)
        out = view.run_lanes(starts, seeds, 10**9)
        assert out.lengths.tolist() == [9, 4, 0]
        assert out.hop_vertex.shape[1] <= 32
        service = StreamService(chain)
        request = {"starts": [90, 95, 99], "seed": 4, "top_k": 3}
        assert (service.walk(dict(request, max_length=10**9), "recommend")
                == service.walk(dict(request, max_length=9), "recommend"))

    @PROPERTY
    @given(streams(), st.sampled_from(KINDS), st.integers(0, 2**31 - 1))
    def test_walks_do_not_depend_on_the_room_they_were_given(self, stream, kind, seed):
        src, dst, times, splits = stream
        view = _ingest(_spec(*kind), src, dst, times, splits).pin()
        rng = make_rng(seed)
        starts = rng.integers(0, int(src.max()) + 1, 32)
        seeds = spawn_seeds(rng, 32)
        roomy = view.run_lanes(starts, seeds, 10**6)
        longest = int(roomy.lengths.max())
        tight = view.run_lanes(starts, seeds, max(longest, 1))
        assert np.array_equal(roomy.lengths, tight.lengths)
        assert np.array_equal(roomy.hop_vertex[:, :longest],
                              tight.hop_vertex[:, :longest])
        assert np.array_equal(roomy.hop_time[:, :longest],
                              tight.hop_time[:, :longest])


class TestReadSideBookkeeping:
    @pytest.fixture
    def engine(self):
        stream = temporal_powerlaw(num_vertices=40, num_edges=600, seed=2,
                                   time_horizon=100.0)
        engine = StreamingTeaEngine(_spec("exponential", 20.0), retain_epochs=8)
        for batch in stream.batches(150):
            engine.apply_batch(batch)
        return engine

    def test_active_vertices_sorted_once_and_handed_out_as_a_copy(self, engine):
        view = engine.pin()
        ids = view.active_vertices()
        assert ids == sorted(view._vertices) == engine.active_vertices()
        assert view._sorted_ids() is view._sorted_ids()
        ids.clear()
        assert view.active_vertices() == sorted(view._vertices)

    def test_an_epoch_packs_on_its_first_burst_only(self, engine):
        hist = engine.registry.histogram
        packs = hist("streaming.epoch_pack_seconds")
        bursts = hist("streaming.pinned_walk_seconds")
        widths = hist("streaming.frontier_size")
        assert (packs.count, bursts.count, widths.count) == (0, 0, 0)
        starts = engine.active_vertices()[:10]
        engine.run_walks(starts, max_length=7, seed=1)
        engine.run_walks(starts, max_length=7, seed=2)
        assert (packs.count, bursts.count) == (1, 2)
        assert 2 <= widths.count <= 2 * 7 and widths.max <= len(starts)
        for epoch in (1, 2, 3):
            engine.pin(epoch).run_walks(starts, max_length=7, seed=1)
        assert (packs.count, bursts.count) == (4, 5)

    def test_one_pack_per_engine_and_none_after_close(self, engine):
        old, new = engine.pin(2), engine.pin()
        starts = engine.active_vertices()[:5]
        old.run_walks(starts, 5)
        assert engine._reads.cached[0] is old
        new.run_walks(starts, 5)
        assert engine._reads.cached[0] is new
        want = [p.hops for p in old.run_walks(starts, 5, seed=3)]
        engine.close()
        assert engine._reads.cached is None
        assert [p.hops for p in old.run_walks(starts, 5, seed=3)] == want

    def test_counters_charged_per_iteration(self, engine):
        counters = CostCounters()
        view = engine.pin()
        starts = np.array(view.active_vertices())
        out = view.run_lanes(starts, spawn_seeds(make_rng(0), starts.size), 9,
                             counters)
        assert counters.steps == int(out.lengths.sum()) > 0
        assert counters.binary_search_probes >= counters.steps
        assert counters.edges_evaluated == counters.binary_search_probes

    def test_nothing_is_packed_on_the_publish_or_recovery_path(self, engine, tmp_path):
        assert engine._reads.cached is None
        assert engine.registry.histogram("streaming.epoch_pack_seconds").count == 0
        stream = temporal_powerlaw(num_vertices=40, num_edges=600, seed=2,
                                   time_horizon=100.0)
        with StreamingTeaEngine(engine.spec, wal_dir=tmp_path) as durable:
            durable.ingest(stream, 150)
        with StreamingTeaEngine(engine.spec, wal_dir=tmp_path) as recovered:
            assert recovered.epoch == 4
            assert recovered._reads.cached is None
            assert recovered.registry.histogram(
                "streaming.epoch_pack_seconds").count == 0
