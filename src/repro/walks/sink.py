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

import os
from pathlib import Path
from typing import Iterator, List, Tuple, Union

import numpy as np

from repro.exceptions import GraphFormatError
from repro.graph.validate import is_temporal_path
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
        hops = [hop for walk in walks for hop in walk.hops[1:]]
        self._write_block(np.array([walk.hops[0][0] for walk in walks]),
                          np.array([len(walk.hops) - 1 for walk in walks]),
                          np.array([v for v, _ in hops], dtype=np.int64),
                          np.array([t for _, t in hops], dtype=np.float64))

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


def validate_corpus(graph, path: PathLike) -> Tuple[int, list]:
    """Check every walk in a corpus file against a graph.

    Returns ``(num_walks, problems)`` where each problem is a
    ``(walk_index, reason)`` pair. A walk is valid when every hop is a
    real edge of ``graph`` and the arrival times strictly increase — the
    temporal-path contract every engine guarantees (useful when corpora
    are produced elsewhere or graphs have drifted since generation).
    """
    problems, count = [], 0
    for count, walk in enumerate(read_walks(path), 1):
        start = walk.hops[0][0]
        if not 0 <= start < graph.num_vertices:
            problems.append((count - 1, f"start vertex {start} out of range"))
        elif not is_temporal_path(graph, walk.hops):
            problems.append((count - 1, "not a temporal path of the graph"))
    return count, problems
