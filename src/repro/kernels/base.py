"""Backend ABI for the fused SoA sampling kernel.

One frontier hop (ROADMAP direction 3) is three structure-of-arrays
passes over the walker population:

1. **select** — gather each lane's candidate total from the prefix-sum
   array, turn its uniform into ``r ∈ (0, total]`` and pick a trunk by
   ITS over the binary decomposition of the candidate size;
2. **alias** — one alias-table draw inside each *deep* lane's trunk;
3. **scatter** — follow the drawn edges: hop columns, next vertex,
   next candidate size, surviving lanes.

A *backend* supplies those passes behind a narrow ABI — array-in /
array-out functions over flat int64/float64 arrays — while the drivers
(:func:`sample_batch` here, ``BatchTeaEngine._run_frontier`` for the
scatter) own everything stateful: every uniform draw, scratch reuse and
:class:`~repro.sampling.counters.CostCounters`. A pass given an
out-of-range vertex, candidate size, lane or edge index raises
:class:`IndexError`; it never reads out of bounds.

``select(index, vs, ss, u, level, out, scratch, count) -> (deep, probes)``
    For each lane ``i`` draw ``r = total − u[i]·total`` (two roundings)
    and find the trunk of the binary decomposition of ``ss[i]`` whose
    cumulative boundary covers it: the trunk's level goes to
    ``level[i]``, its edge offset to ``out[i]``. Returns the rows with
    ``level > 0`` and, when ``count``, the cost model's probe total
    (``⌈log2 max(popcount s, 2)⌉ + 1`` per lane). May overwrite ``u``.

``alias(index, vs, level, out, deep, u_cell, u_take, scratch)``
    For each deep row draw a cell of its level's alias table with
    ``u_cell``, accept or redirect with ``u_take``, and add the in-trunk
    pick to ``out[row]`` in place.

``scatter(walk, lanes, vs, idx, iteration, scratch) -> lanes``
    Lane ``lanes[i]`` at vertex ``vs[i]`` takes local edge ``idx[i]``:
    records the hop in column ``iteration`` (when hop columns are kept),
    updates ``walk.prev/cur/s/steps_left`` and returns the lanes that
    walk on. ``lanes`` must be the caller's own array — a backend may
    compact it in place and return a prefix view.

A backend may also supply the whole hop of a **lane-keyed** run, draws
included, as a fourth, optional member. :class:`~repro.rng.LaneRng`
defines the stream and the passes under the drivers stay the
specification: a backend without the member (``None``), or whose arrays
do not fit it, is orchestrated by the drivers; one with it must
reproduce them bit for bit (walks, stream counters, costs).

``hop(index, walk, rng, stop, node2vec, scratch) -> step | None``
    Bind one run, verifying its arrays once (``None``: they do not fit):
    ``rng`` is the run's ``LaneRng``, ``stop`` its stop probability,
    ``node2vec`` ``None`` or ``(static_keys, span, 1/p, 1/q, beta_max,
    rounds)``. ``step(lanes, iteration, counters) -> (lanes, spent)``
    then advances every lane one hop, consuming each lane's stream in
    the drivers' order — stop draw, then per β round: select, two alias
    draws when deep, accept — and charges ``counters``. ``spent`` are
    the lanes that used up ``rounds`` rejections: stream advanced, walk
    state untouched, for the caller's exact fallback and ``scatter``.

Two more optional members compile the index build's per-table loops; a
backend without them (``None``) leaves the build to the numpy builders,
which stay the specification. Both write in place and release the GIL.

``alias_build(width, src, dst, totals, weights, prob, alias)``
    ``src.size`` Vose tables of one width: table ``r`` reads
    ``weights[src[r]:+width]`` and writes ``prob``/``alias[dst[r]:+width]``,
    bit for bit what ``build_alias_arrays_batch`` builds from the row
    whose numpy sum is ``totals[r]``; a row with ``totals[r] <= 0`` gets
    the identity table.

``prefix_sums(indptr, weights, c, lo, hi)``
    Per-vertex prefix sums of vertices ``lo..hi-1`` into ``c`` (vertex
    ``v``'s segment starts at ``indptr[v] + v`` with a leading 0),
    ``np.cumsum``'s sequential adds.

Three more optional members compile the per-lane arithmetic of the
out-of-core PAT draw (``engines/tea_outofcore/batch.py``) around the
trunk store's reads, which stay in Python. The numpy lockstep there is
the specification; the members reproduce it bit for bit (draws from the
``LaneRng`` stream, counters and costs, and so the same reads).
``index`` is an ``OutOfCorePAT``; an out-of-range vertex, size, lane or
payload row raises :class:`IndexError`.

``ooc_plan(index, vs, ss, scratch) -> (rows, c_lo, c_hi) | None``
    Validate every lane (``0 <= v < V``, ``1 <= s <= deg``) and list the
    ragged ones (``s`` not a multiple of the trunk size) with their
    C-slice trunk ``[c_lo, c_hi)``. ``None`` when the index's arrays do
    not bind; the binding is memoised in ``scratch`` for the two members
    below.

``ooc_select(index, vs, ss, rng, lanes, c_trunks, c_row, scratch) -> (out, deep, pa_lo, pa_hi, probes)``
    Per lane: the candidate total (resident boundary, or the ragged
    lane's ``c_trunks[c_row[j]]`` row from ``read_batch("c")``), its next
    uniform, ``r = total − u·total``, then the lockstep bisect over the
    boundaries (a *deep* lane: ``out = trunk·ts`` and its alias trunk
    ``[pa_lo, pa_hi)``) or the partial-trunk compare-count (``out``
    final). ``probes`` is the cost model's count.

``ooc_alias(index, vs, lanes, rng, deep, tables, t_row, out, scratch)``
    Two uniforms per deep row pick a cell of its alias trunk
    ``tables[t_row[j]]`` (``read_batch("pa")``'s payload), added to
    ``out`` in place.

Two more optional members compile the bookkeeping of
:meth:`TrunkStore.read_batch <repro.core.outofcore.TrunkStore.read_batch>`
around its backing gather, which stays in numpy. They work in place on a
:class:`~repro.core.frame_pool.FramePool`'s columns (bound once per slab
in ``scratch``, the store's own) and update its ``used``, clock and
statistics; ``FramePool.touch`` / ``FramePool.admit`` are the
specification, and a backend without them (``None``) runs those. Not
re-entrant: one pool, one caller at a time.

``pool_read(pool, scratch, size, tag, files, los, lens, widest) -> (payload, lengths, inverse, miss, miss_lo, miss_len)``
    Check every range ``[lo, lo + len)`` against a region of ``size``
    elements (``IndexError``, before the pool is touched), dedupe them
    (distinct ranges ascending; range ``i`` is row ``inverse[i]``), touch
    every row's frame keys (file tags ``tag, tag + 1, ..``) in row-major
    order, and copy the rows whose every file is resident into the
    ``(rows, files, widest)`` payload. ``miss`` are the other rows,
    ``miss_lo`` / ``miss_len`` their ranges, ascending.

``pool_admit(pool, scratch, tag, los, lens, staging)``
    Admit ``pool_read``'s miss ranges (ascending) with their ``(misses,
    files, width)`` staging rows, exactly as ``FramePool.admit`` admits
    the frame keys of the ranges no wider than a frame (whole ranges
    turned away when the pool is too full).

A last optional member is the whole out-of-core iteration, the way
``hop`` is the whole in-memory one: the call sequence above —
``ooc_plan`` / ``ooc_select`` / ``ooc_alias`` around two
``read_batch`` calls and their pool passes, then ``scatter`` — is its
specification, bit for bit (walks, stream counters, costs, the pool's
columns and statistics, ``read_ops``, the ``ooc.*`` byte histograms and
the ``cache.*`` events) at any thread count. Not re-entrant, like the
pool passes.

``ooc_step(index, walk, rng, stop, scratch, threads) -> step | None``
    Bind one lane-keyed run without β over ``index`` (an
    ``OutOfCorePAT``; its store's pool must be sized and its maps open),
    sizing its scratch once from the run's lanes (``None``: the arrays
    do not bind). ``step(lanes, iteration, counters) -> (lanes, spent)``
    then advances every lane one hop — stop draw, plan, the ``"c"``
    lookup, select, the misses' runs and admission from the mapped
    ``c.bin``, the same for ``"pa"`` from ``prob.bin`` / ``alias.bin``,
    alias, scatter — and charges ``counters``, the pool's statistics and
    the store (``TrunkStore.account_tallies``); ``spent`` is empty. The
    per-lane passes may run on up to ``threads`` threads that live for
    one call (the engine passes its usable CPUs); the pool passes run on
    the calling thread, in the call sequence's order.

A last member draws a run's lane seeds before any slice exists. Every
backend has one: :func:`repro.rng.spawn_seeds` is the default and the
specification, and ``c`` compiles it.

``seeds(rng, n) -> int64[n]``
    ``rng.integers(0, 2**63 - 1, n, dtype=np.int64)`` bit for bit, and
    ``rng`` left in the state that call leaves it in, whatever its bit
    generator; the call holds ``rng.bit_generator.lock``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.rng import spawn_seeds
from repro.sampling.counters import CostCounters


class KernelScratch:
    """Named scratch buffers, grown once, reused across iterations.

    One instance lives for the duration of a frontier run (one per
    chunk in the parallel executor — never shared across threads) and
    hands out views sized to the current lane set, so the per-iteration
    temporaries of the sampling kernel cost zero allocations after the
    first iteration at peak frontier size. ``bound`` is the backends'
    per-run memo (the compiled backend keeps its verified array
    addresses there, so arrays are checked once per run, not per hop).
    """

    __slots__ = ("_bufs", "bound")

    def __init__(self):
        self._bufs: Dict[str, np.ndarray] = {}
        self.bound: Dict[str, tuple] = {}

    def array(self, name: str, n: int, dtype) -> np.ndarray:
        """An uninitialised view of length ``n`` under ``name``."""
        buf = self._bufs.get(name)
        if buf is None or buf.size < n:
            buf = np.empty(max(int(n), 16), dtype=dtype)
            self._bufs[name] = buf
        return buf[:n]


@dataclass
class WalkState:
    """The arrays one frontier run advances — ``scatter``'s operands.

    The graph's CSR (``indptr``/``nbr``/``etime``) and the per-edge
    candidate sizes are read; ``cur``/``prev``/``s``/``steps_left`` (one
    entry per walk) and the ``(walks, max_length)`` hop columns (``None``
    when hops are not kept) are written.
    """

    indptr: np.ndarray
    nbr: np.ndarray
    etime: np.ndarray
    candidate_sizes: np.ndarray
    cur: np.ndarray
    prev: np.ndarray
    s: np.ndarray
    steps_left: np.ndarray
    hop_vertex: Optional[np.ndarray] = None
    hop_time: Optional[np.ndarray] = None


@dataclass(frozen=True)
class KernelBackend:
    """One implementation of the three passes, plus the optional compiled
    members — fused hop, index build, out-of-core draw — that ``None``
    leaves to the numpy code they must reproduce (see module doc)."""

    name: str
    select: Callable
    alias: Callable
    scatter: Callable
    #: Optional binder of the whole lane-keyed hop (only ``c`` has one).
    hop: Optional[Callable] = None
    #: Optional compiled index build (only ``c``): Vose tables and
    #: per-vertex prefix sums, written in place (see module doc).
    alias_build: Optional[Callable] = None
    prefix_sums: Optional[Callable] = None
    #: Optional compiled out-of-core PAT draw (only ``c``; see module doc).
    ooc_plan: Optional[Callable] = None
    ooc_select: Optional[Callable] = None
    ooc_alias: Optional[Callable] = None
    #: Optional compiled frame-pool passes (only ``c``; see module doc).
    pool_read: Optional[Callable] = None
    pool_admit: Optional[Callable] = None
    #: Optional binder of a whole out-of-core iteration (only ``c``).
    ooc_step: Optional[Callable] = None
    #: A run's lane seeds (see module doc); ``c`` compiles the default.
    seeds: Callable = spawn_seeds


def sample_batch(
    backend: KernelBackend,
    index,
    vs: np.ndarray,
    ss: np.ndarray,
    rng: Optional[np.random.Generator],
    counters: Optional[CostCounters] = None,
    *,
    draw=None,
    lanes: Optional[np.ndarray] = None,
    scratch: Optional[KernelScratch] = None,
) -> np.ndarray:
    """One fused HPAT draw per (vertex, candidate-size) pair.

    The shared driver around a backend's ``select``/``alias``: draws one
    uniform per lane, then one block of two per deep lane, and accounts
    costs. Row ``i`` draws from lane ``lanes[i]`` of the
    :class:`~repro.rng.LaneRng` ``draw`` when one is given (the frontier
    loop's case), else straight from ``rng`` (``rng.random(n)``, then
    ``rng.random((2, deep))``). Returns per-lane edge indices local to
    each vertex's adjacency; the result is a scratch view — valid until
    the next call on the same ``scratch``. Raises :class:`IndexError`
    for a vertex outside the index or a candidate size outside
    ``1..deg(v)``.
    """
    n = vs.size
    if n == 0:
        return np.zeros(0, dtype=np.int64)
    # Backends see contiguous int64 only.
    vs = np.ascontiguousarray(vs, dtype=np.int64)
    ss = np.ascontiguousarray(ss, dtype=np.int64)
    if scratch is None:
        scratch = KernelScratch()

    level = scratch.array("level", n, np.int64)
    out = scratch.array("out", n, np.int64)
    u = rng.random(n) if draw is None else draw.uniform(lanes)
    deep, probes = backend.select(index, vs, ss, u, level, out, scratch,
                                  counters is not None)
    if counters is not None:
        counters.binary_search_probes += probes
        counters.edges_evaluated += probes
    # Alias draw inside each selected trunk (level 0 is the identity).
    if deep.size:
        u = (rng.random((2, deep.size)) if draw is None
             else draw.uniform_block(lanes[deep], 2))
        backend.alias(index, vs, level, out, deep, u[0], u[1], scratch)
        if counters is not None:
            counters.alias_draws += int(deep.size)
            counters.edges_evaluated += int(deep.size)
    return out
