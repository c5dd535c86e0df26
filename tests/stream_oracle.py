"""Test oracle: the scalar reader of the streaming carry forest.

This is the one-walker-at-a-time path ``repro.core.incremental`` and
``repro.streaming`` shipped beside the epoch pack — ``candidate_count``
and ``sample`` on a block, a vertex forest, the live index and an epoch
view, the ``walk_index`` loop, and the single-walk ``walk()`` of the
engine and of a view. ``src/`` now reads an epoch only through its pack
(``EpochView.run_lanes`` / ``run_walks``); this reader stays here, like
``carry_oracle.py`` for construction, as the specification of the pack's
draw: two uniforms a hop, the covered whole blocks' running totals
rescaled to the heaviest covered exponent, then inverse transform over
the chosen block's masses. Drawing lane ``i`` of ``LaneRng(seeds)`` it
takes lane ``i``'s hops bit for bit
(``tests/test_epoch_pack.py::TestBitIdentity``).
"""

from __future__ import annotations

from math import ldexp
from typing import List, Optional, Tuple

from repro.exceptions import EmptyCandidateSetError
from repro.rng import make_rng
from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import draw_in_range, its_search
from repro.walks.walker import Walker, WalkPath


def block_candidate_count(block, t: float) -> int:
    """Edges of a block with time strictly greater than t."""
    # Reversed *view* (ascending): O(log size), no per-query allocation.
    return block.size - int(block.times[::-1].searchsorted(t, side="right"))


def block_sample_prefix(block, s: int, rng,
                        counters: Optional[CostCounters]) -> int:
    """Sample among a block's newest s edges ∝ weight (local index):
    inverse transform over ``c``, the rule (``c[a] < r ≤ c[a+1]``) of the
    epoch pack's in-segment bisect."""
    r = draw_in_range(rng, 0.0, block.c[s])
    return its_search(block.c, r, 0, s, counters)


def vertex_candidate_count(vert, t: Optional[float]) -> int:
    """|Γt| of one vertex forest (``t=None``: every edge)."""
    if t is None:
        return vert.num_edges
    count = 0
    for b in vert.blocks:  # newest first
        c = block_candidate_count(b, t)
        count += c
        if c < b.size:
            break
    return count


def vertex_sample(vert, candidate_size: int, rng,
                  counters: Optional[CostCounters] = None) -> Tuple[int, float]:
    """Sample among a forest's newest ``candidate_size`` edges ∝ static
    weight; ``(destination, time)`` of the sampled edge."""
    s = int(candidate_size)
    if s <= 0 or s > vert.num_edges:
        raise EmptyCandidateSetError(
            f"candidate size {s} invalid for {vert.num_edges} edges"
        )
    # Running totals of the whole covered blocks (newest first) as
    # ``total · 2^kmax``, kmax the largest exponent so far — the
    # additions of the pack's ``seg_cum`` — then every total and the
    # boundary block's partial mass rescaled to the heaviest covered
    # exponent: the ITS over trunks, lifted to the block forest.
    blocks = vert.blocks
    whole: List[Tuple[float, int]] = []
    total, kmax = 0.0, blocks[0].exp
    remaining = s
    for b in blocks:
        if remaining < b.size:
            break
        k = max(kmax, b.exp)
        total, kmax = ldexp(total, kmax - k) + ldexp(b.c[-1], b.exp - k), k
        whole.append((total, kmax))
        remaining -= b.size
        if not remaining:
            break
    k_star = kmax
    if remaining:
        part = blocks[len(whole)]
        k_star = max(kmax, part.exp)
    cum = [0.0] + [ldexp(t, k - k_star) for t, k in whole]
    if remaining:
        cum.append(cum[-1] + ldexp(part.c[remaining], part.exp - k_star))
    total = cum[-1]
    if not (total > 0):
        raise EmptyCandidateSetError("zero-weight candidate set")
    r = draw_in_range(rng, 0.0, total)
    lo_b, hi_b = 0, len(cum) - 1
    while hi_b - lo_b > 1:
        mid = (lo_b + hi_b) // 2
        if counters is not None:
            counters.record_probe()
        if cum[mid] < r:
            lo_b = mid
        else:
            hi_b = mid
    block = blocks[lo_b]
    take = remaining if lo_b == len(whole) else block.size
    local = block_sample_prefix(block, take, rng, counters)
    return int(block.dst[local]), float(block.times[local])


class ScalarReader:
    """``candidate_count`` / ``sample`` by vertex id over the forests of
    a live index, an engine or an epoch view (:meth:`of`)."""

    def __init__(self, vertices):
        self.vertices = vertices

    @classmethod
    def of(cls, source) -> "ScalarReader":
        index = getattr(source, "index", source)  # an engine holds its index
        vertices = getattr(index, "vertices", None)
        return cls(index._vertices if vertices is None else vertices)

    def candidate_count(self, v: int, t: Optional[float]) -> int:
        vert = self.vertices.get(v)
        return vertex_candidate_count(vert, t) if vert is not None else 0

    def sample(self, v: int, candidate_size: int, rng,
               counters: Optional[CostCounters] = None) -> Tuple[int, float]:
        vert = self.vertices.get(v)
        if vert is None:
            raise EmptyCandidateSetError(f"vertex {v} has no out-edges")
        return vertex_sample(vert, candidate_size, rng, counters)


def walk_index(source, start: int, max_length: int, rng,
               counters: Optional[CostCounters] = None) -> WalkPath:
    """The scalar temporal-walk loop over an engine, index or view."""
    reader = ScalarReader.of(source)
    walker = Walker(int(start))
    v = walker.start_vertex
    while walker.num_edges < max_length:
        s = reader.candidate_count(v, walker.current_time)
        if s <= 0:
            break
        if counters is not None:
            counters.record_step()
        v2, t2 = reader.sample(v, s, rng, counters)
        walker.advance(v2, t2)
        v = v2
    return walker.finish()


def walk(source, start: int, max_length: int, seed=None) -> WalkPath:
    """One temporal walk from a seed: the old ``walk()`` of the engine
    and of a view."""
    return walk_index(source, start, max_length, make_rng(seed))
