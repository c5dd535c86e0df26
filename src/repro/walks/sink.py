"""Walk corpora on disk, written in blocks.

Paper §4.1: "TEA stores the completed random walks the same as
GraphWalker, that is, we flush the completed ones to disk when the
number of them reaches 1,024." :class:`WalkSink` writes blocks of at
most 1,024 walks, the columns of ``FrontierResult.blocks()`` that
``Engine.run(sink=)`` hands over. The suffix picks the encoding:

* text (any suffix but ``.twalks``) — one walk per line,
  ``v0 v1@t1 v2@t2 ...``, what embedding pipelines consume;
* ``.twalks`` version 2 — the magic ``TWLK\\x02``, then per block, in
  native byte order::

      int32    n                       walks in the block, <= 1024
      int64    starts[n]               first vertex of each walk
      int32    lengths[n]              hops after the start, >= 0
      int64    vertices[sum(lengths)]  hop vertices, walk after walk
      float64  times[sum(lengths)]     their arrival times

  A version 1 file (one record per walk) is refused by its version.
"""

from __future__ import annotations

import itertools
import os
from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.exceptions import GraphFormatError
from repro.walks.walker import BLOCK_WALKS, WalkPath, walk_paths

PathLike = Union[str, os.PathLike]

_MAGIC = b"TWLK\x02"


class WalkSink:
    """Block writer of a walk corpus; ``path``'s suffix picks the format."""

    def __init__(self, path: PathLike):
        self.path = Path(path)
        self.binary = self.path.suffix == ".twalks"
        self._buffer: List[WalkPath] = []
        self._file = None
        self.walks_written = 0
        self.flushes = 0  # blocks written

    # -- context management: a sink is open inside its ``with`` block -------

    def __enter__(self) -> "WalkSink":
        self._file = open(self.path, "wb" if self.binary else "w")
        if self.binary:
            self._file.write(_MAGIC)
        return self

    def __exit__(self, *exc) -> None:
        self.flush()
        self._file.close()
        self._file = None

    # -- writing ---------------------------------------------------------------

    def write(self, frontier) -> None:
        """Write a :class:`~repro.engines.base.FrontierResult`'s walks
        (its hop columns must be kept), after any appended ones."""
        self.flush()
        for block in frontier.blocks():
            self._write_block(*block)

    def append(self, path: WalkPath) -> None:
        """Buffer one completed walk; a full block is written."""
        if self._file is None:
            raise RuntimeError("sink is not open")
        self._buffer.append(path)
        if len(self._buffer) >= BLOCK_WALKS:
            self.flush()

    def flush(self) -> None:
        """Write the appended walks as one block."""
        if not self._buffer:
            return
        walks, self._buffer = self._buffer, []
        self._write_block(*_columns(walks))

    def _write_block(self, starts: np.ndarray, lengths: np.ndarray,
                     vertices: np.ndarray, times: np.ndarray) -> None:
        if self.binary:
            for column, dtype in ((np.int32(starts.size), np.int32),
                                  (starts, np.int64), (lengths, np.int32),
                                  (vertices, np.int64), (times, np.float64)):
                self._file.write(np.ascontiguousarray(column, dtype=dtype).tobytes())
        else:
            # repr() round-trips float64 exactly; %g would truncate and
            # break strict-equality validation against the graph.
            tokens = [f" {v}@{t!r}" for v, t in zip(vertices.tolist(),
                                                     times.tolist())]
            ends = np.cumsum(lengths).tolist()
            self._file.write("".join([
                f"{start}{''.join(tokens[first:end])}\n"
                for start, first, end in zip(starts.tolist(), [0] + ends, ends)
            ]))
        self.walks_written += int(starts.size)
        self.flushes += 1


def _columns(walks: List[WalkPath]) -> Tuple[np.ndarray, ...]:
    """``(starts, lengths, vertices, times)`` block columns of ``walks``."""
    hops = [hop for walk in walks for hop in walk.hops[1:]]
    return (np.array([walk.hops[0][0] for walk in walks], dtype=np.int64),
            np.array([len(walk.hops) - 1 for walk in walks], dtype=np.int64),
            np.array([v for v, _ in hops], dtype=np.int64),
            np.array([t for _, t in hops], dtype=np.float64))


def read_walks(path: PathLike) -> Iterator[WalkPath]:
    """Stream walks back from a file written by :class:`WalkSink`."""
    path = Path(path)
    if path.suffix == ".twalks":
        for block in _read_blocks(path):
            yield from walk_paths(*block)
    else:
        yield from _read_text(path)


def _read_text(path: Path) -> Iterator[WalkPath]:
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            tokens = line.split()
            if not tokens:
                continue
            token = tokens[0]
            try:
                hops = [(int(token), None)]
                for token in tokens[1:]:
                    v, t = token.split("@")
                    hops.append((int(v), float(t)))
            except ValueError as exc:
                raise GraphFormatError(f"{path}:{lineno}: bad token {token!r}") from exc
            yield WalkPath(hops=hops)


def _read_blocks(path: Path) -> Iterator[Tuple[np.ndarray, ...]]:
    """``(starts, lengths, vertices, times)`` of each block of a v2
    ``.twalks`` file, one block in memory at a time."""
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size

        def take(dtype, count: int) -> np.ndarray:
            # Checked before reading: a corrupt count sizes no allocation.
            nbytes = count * np.dtype(dtype).itemsize
            if size - f.tell() < nbytes:
                raise GraphFormatError(
                    f"{path}: torn walk block: the file ends inside it")
            return np.frombuffer(f.read(nbytes), dtype=dtype)

        magic = f.read(len(_MAGIC))
        if len(magic) < len(_MAGIC) or magic[:4] != _MAGIC[:4]:
            raise GraphFormatError(f"{path}: not a .twalks file")
        if magic != _MAGIC:
            raise GraphFormatError(
                f"{path}: .twalks version {magic[4]} is not readable "
                f"(this reader reads version {_MAGIC[4]})")
        while f.tell() < size:
            count = int(take(np.int32, 1)[0])
            if count < 0:
                raise GraphFormatError(f"{path}: negative walk count {count}")
            starts = take(np.int64, count)
            lengths = take(np.int32, count)
            if (lengths < 0).any():
                raise GraphFormatError(
                    f"{path}: negative walk length {int(lengths.min())}")
            hops = int(lengths.sum(dtype=np.int64))
            yield starts, lengths, take(np.int64, hops), take(np.float64, hops)


def _blocks(path: Path) -> Iterator[Tuple[np.ndarray, ...]]:
    """Block columns of a corpus in either format, one block at a time."""
    if path.suffix == ".twalks":
        yield from _read_blocks(path)
        return
    walks = _read_text(path)
    while True:
        block = list(itertools.islice(walks, BLOCK_WALKS))
        if not block:
            return
        yield _columns(block)


def _bad_walks(graph, starts, lengths, vertices, times):
    """``(bad_start, bad_path)`` masks of one block: a start outside
    ``[0, V)``, else a hop that is not an edge ``(u, v, t)`` of ``graph``
    or whose time does not exceed the walk's previous hop time —
    :func:`repro.graph.validate.is_temporal_path`'s contract, checked in
    array passes over the whole block."""
    n, V = starts.size, graph.num_vertices
    lengths = lengths.astype(np.int64)
    bad_start = (starts < 0) | (starts >= V)
    walk = np.repeat(np.arange(n), lengths)
    first = np.zeros(vertices.size, dtype=bool)
    first[(np.cumsum(lengths) - lengths)[lengths > 0]] = True
    src = np.empty_like(vertices)
    src[1:] = vertices[:-1]
    src[first] = starts[walk[first]]
    rising = np.ones(vertices.size, dtype=bool)
    rising[1:] = times[1:] > times[:-1]
    hop = np.flatnonzero((src >= 0) & (src < V) & (rising | first))
    # Rows are time-descending, so the edges of u at exactly t follow
    # the |Γt(u)| newer ones; each pass tests one more edge of every tie.
    u = src[hop]
    pos = graph.indptr[u] + graph.candidate_counts_batch(u, times[hop])
    end = graph.indptr[u + 1]
    edge = np.zeros(vertices.size, dtype=bool)
    while hop.size:
        inside = pos < end
        hop, pos, end = hop[inside], pos[inside], end[inside]
        tie = graph.etime[pos] == times[hop]
        hit = tie & (graph.nbr[pos] == vertices[hop])
        edge[hop[hit]] = True
        miss = tie & ~hit
        hop, pos, end = hop[miss], pos[miss] + 1, end[miss]
    return bad_start, np.bincount(walk[~edge], minlength=n) > 0


def validate_corpus(graph, path: PathLike) -> Tuple[int, list]:
    """Check every walk in a corpus file against a graph.

    Returns ``(num_walks, problems)`` where each problem is a
    ``(walk_index, reason)`` pair. A walk is valid when every hop is a
    real edge of ``graph`` and the arrival times strictly increase — the
    temporal-path contract every engine guarantees (useful when corpora
    are produced elsewhere or graphs have drifted since generation).
    The check runs one block of walks at a time in array passes;
    :func:`repro.graph.validate.is_temporal_path` is its per-walk
    reference.
    """
    problems, count = [], 0
    for starts, lengths, vertices, times in _blocks(Path(path)):
        bad_start, bad_path = _bad_walks(graph, starts, lengths, vertices, times)
        for i in np.flatnonzero(bad_start | bad_path).tolist():
            problems.append((count + i, f"start vertex {starts[i]} out of range"
                             if bad_start[i] else "not a temporal path of the graph"))
        count += starts.size
    return count, problems
