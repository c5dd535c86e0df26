"""Random-number utilities.

Everything stochastic in the library flows through a
:class:`numpy.random.Generator` so experiments are reproducible from a
single seed. :func:`make_rng` is the one place seeds are interpreted;
:func:`spawn` derives independent child generators for parallel work
(construction threads, per-walker streams) without seed collisions.
"""

from __future__ import annotations

from typing import Union

import numpy as np

RngLike = Union[None, int, np.random.Generator, np.random.SeedSequence]


def make_rng(seed: RngLike = None) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    Accepts ``None`` (fresh entropy), an integer seed, a
    :class:`~numpy.random.SeedSequence`, or an existing generator (returned
    unchanged so callers can thread one generator through a pipeline).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, np.random.SeedSequence):
        return np.random.default_rng(seed)
    return np.random.default_rng(seed)


def spawn_seeds(rng: np.random.Generator, n: int) -> np.ndarray:
    """Draw ``n`` child seeds from ``rng`` (the transportable half of
    :func:`spawn`).

    Every frontier run keys walk ``i`` on ``seeds[i]`` (a
    :class:`LaneRng` lane), and parallel executors ship these integers
    to workers instead of generator objects, so results are keyed by
    walk — independent of which worker runs it or in what order tasks
    complete.

    The specification of the kernel backends' ``seeds`` member, which a
    frontier engine's ``run`` draws through: its compiled twin is
    ``lane_seeds`` in ``repro/kernels/hop.c`` (Lemire's draw through the
    bit generator's own ``next_uint64``), equal seeds and end state.
    """
    return rng.integers(0, 2**63 - 1, size=n, dtype=np.int64)


def spawn(rng: np.random.Generator, n: int) -> list:
    """Derive ``n`` statistically independent child generators from ``rng``.

    Used for parallel construction and multi-walker experiments; children
    are independent of each other and of subsequent draws from ``rng``.
    """
    return [np.random.default_rng(int(s)) for s in spawn_seeds(rng, n)]


# ---------------------------------------------------------------------------
# Counter-based per-lane streams
# ---------------------------------------------------------------------------
#
# A chunk-parallel executor cannot key randomness on a shared
# Generator: the values a lane sees would then depend on which other
# lanes happened to draw in the same vectorised call — i.e. on chunk
# boundaries and scheduling. LaneRng keys every draw on (lane seed, lane
# draw ordinal) instead, using the splitmix64 sequence: lane i's k-th
# uniform is ``finalize(seed_i + k·γ) / 2^64``. Grouping lanes into
# chunks only changes *which draws share a numpy call*, never their
# values — the bit-determinism contract of repro.parallel.

_SM64_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_SM64_M1 = np.uint64(0xBF58476D1CE4E5B9)
_SM64_M2 = np.uint64(0x94D049BB133111EB)
_U53_INV = float(2.0 ** -53)


def _splitmix64(z: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, vectorised over a uint64 array."""
    z = (z ^ (z >> np.uint64(30))) * _SM64_M1
    z = (z ^ (z >> np.uint64(27))) * _SM64_M2
    return z ^ (z >> np.uint64(31))


class LaneRng:
    """Independent counter-based uniform streams, one per lane.

    ``seeds`` assigns lane ``i`` its stream key (the per-walk seeds one
    :func:`spawn_seeds` call drew for a run, a slice or parallel chunk
    of them, or a request). Each
    :meth:`uniform` call advances only the named lanes' counters, so a
    lane's stream consumption depends exclusively on its own history —
    the property that makes walks invariant under chunking, worker
    count, backend and scheduling order.
    """

    __slots__ = ("_key", "_ctr")

    def __init__(self, seeds: np.ndarray):
        self._key = np.ascontiguousarray(seeds).astype(np.uint64)
        self._ctr = np.zeros(self._key.size, dtype=np.uint64)

    def uniform(self, lanes: np.ndarray) -> np.ndarray:
        """Next uniform in ``[0, 1)`` for each (distinct) lane in ``lanes``."""
        self._ctr[lanes] += np.uint64(1)
        z = _splitmix64(self._key[lanes] + self._ctr[lanes] * _SM64_GAMMA)
        return (z >> np.uint64(11)).astype(np.float64) * _U53_INV

    def uniform_block(self, lanes: np.ndarray, k: int) -> np.ndarray:
        """``k`` consecutive uniforms per lane, shape ``(k, lanes.size)``.

        Row ``j`` is bit-identical to the ``j``-th of ``k`` successive
        :meth:`uniform` calls over the same lanes — the fused kernels
        draw their per-stage uniforms in one block without perturbing
        any lane's stream (property-tested).
        """
        base = self._ctr[lanes]
        self._ctr[lanes] = base + np.uint64(k)
        steps = np.arange(1, k + 1, dtype=np.uint64)[:, None]
        z = _splitmix64(
            self._key[lanes][None, :] + (base[None, :] + steps) * _SM64_GAMMA
        )
        return (z >> np.uint64(11)).astype(np.float64) * _U53_INV
