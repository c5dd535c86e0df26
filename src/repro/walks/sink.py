"""Walk output sinks: buffered persistence of completed walks.

Paper §4.1: "TEA stores the completed random walks the same as
GraphWalker, that is, we flush the completed ones to disk when the
number of them reaches 1,024." :class:`WalkSink` implements that policy
(threshold configurable) over two formats:

* **text** — one walk per line, ``v0 v1@t1 v2@t2 ...`` (human-greppable,
  what embedding pipelines consume);
* **binary** — a compact framed format (`.twalks`): per walk a length
  prefix, then vertex ids and times.

Engines accept a sink via :meth:`repro.engines.base.Engine.run`'s
``sink`` argument; paths flow to disk instead of accumulating in memory,
which is what makes R·|V| corpus generation feasible on big workloads.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

import numpy as np

from repro.exceptions import GraphFormatError
from repro.walks.walker import WalkPath

PathLike = Union[str, os.PathLike]

DEFAULT_FLUSH_THRESHOLD = 1024  # the paper's (and GraphWalker's) constant
_MAGIC = b"TWLK\x01"


class WalkSink:
    """Buffered walk writer with GraphWalker's flush-at-1024 policy."""

    def __init__(
        self,
        path: PathLike,
        flush_threshold: int = DEFAULT_FLUSH_THRESHOLD,
        binary: Optional[bool] = None,
    ):
        if flush_threshold <= 0:
            raise ValueError("flush_threshold must be positive")
        self.path = Path(path)
        self.flush_threshold = int(flush_threshold)
        self.binary = (
            self.path.suffix == ".twalks" if binary is None else bool(binary)
        )
        self._buffer: List[WalkPath] = []
        self._file = None
        self.walks_written = 0
        self.flushes = 0

    # -- context management --------------------------------------------------

    def __enter__(self) -> "WalkSink":
        return self.open()

    def __exit__(self, *exc) -> None:
        self.close()

    def open(self) -> "WalkSink":
        mode = "wb" if self.binary else "w"
        self._file = open(self.path, mode)
        if self.binary:
            self._file.write(_MAGIC)
        return self

    def close(self) -> None:
        if self._file is not None:
            self.flush()
            self._file.close()
            self._file = None

    # -- writing ---------------------------------------------------------------

    def append(self, path: WalkPath) -> None:
        """Buffer one completed walk; flush at the threshold."""
        if self._file is None:
            raise RuntimeError("sink is not open")
        self._buffer.append(path)
        if len(self._buffer) >= self.flush_threshold:
            self.flush()

    def flush(self) -> None:
        if not self._buffer:
            return
        if self.binary:
            self._flush_binary()
        else:
            self._flush_text()
        self.walks_written += len(self._buffer)
        self.flushes += 1
        self._buffer.clear()

    def _flush_text(self) -> None:
        lines = []
        for walk in self._buffer:
            parts = [str(walk.hops[0][0])]
            # repr() round-trips float64 exactly; %g would truncate and
            # break strict-equality validation against the graph.
            parts.extend(f"{v}@{t!r}" for v, t in walk.hops[1:])
            lines.append(" ".join(parts))
        self._file.write("\n".join(lines) + "\n")

    def _flush_binary(self) -> None:
        for walk in self._buffer:
            n = len(walk.hops)
            np.asarray([n], dtype=np.int32).tofile(self._file)
            np.asarray([v for v, _ in walk.hops], dtype=np.int64).tofile(self._file)
            times = [t if t is not None else np.nan for _, t in walk.hops]
            np.asarray(times, dtype=np.float64).tofile(self._file)


def read_walks(path: PathLike) -> Iterator[WalkPath]:
    """Stream walks back from a file written by :class:`WalkSink`."""
    path = Path(path)
    if path.suffix == ".twalks":
        yield from _read_binary(path)
    else:
        yield from _read_text(path)


def _read_text(path: Path) -> Iterator[WalkPath]:
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            hops = []
            for i, token in enumerate(line.split()):
                if i == 0:
                    hops.append((int(token), None))
                    continue
                try:
                    v, t = token.split("@")
                    hops.append((int(v), float(t)))
                except ValueError as exc:
                    raise GraphFormatError(f"{path}:{lineno}: bad hop {token!r}") from exc
            yield WalkPath(hops=hops)


def _read_binary(path: Path) -> Iterator[WalkPath]:
    with open(path, "rb") as f:
        if f.read(len(_MAGIC)) != _MAGIC:
            raise GraphFormatError(f"{path}: not a .twalks file")
        while True:
            header = f.read(4)
            if not header:
                return
            if len(header) < 4:
                raise GraphFormatError(f"{path}: torn walk record header")
            n = int(np.frombuffer(header, dtype=np.int32)[0])
            if n < 0:
                raise GraphFormatError(f"{path}: negative walk length {n}")
            vs = np.fromfile(f, dtype=np.int64, count=n)
            ts = np.fromfile(f, dtype=np.float64, count=n)
            if vs.size != n or ts.size != n:
                raise GraphFormatError(f"{path}: truncated walk record")
            hops = [
                (int(v), None if np.isnan(t) else float(t))
                for v, t in zip(vs, ts)
            ]
            yield WalkPath(hops=hops)


def validate_corpus(graph, path: PathLike) -> Tuple[int, list]:
    """Check every walk in a corpus file against a graph.

    Returns ``(num_walks, problems)`` where each problem is a
    ``(walk_index, reason)`` pair. A walk is valid when every hop is a
    real edge of ``graph`` and the arrival times strictly increase — the
    temporal-path contract every engine guarantees (useful when corpora
    are produced elsewhere or graphs have drifted since generation).
    """
    from repro.graph.validate import is_temporal_path

    problems = []
    count = 0
    for i, walk in enumerate(read_walks(path)):
        count += 1
        if not walk.hops:
            problems.append((i, "empty walk"))
            continue
        first_vertex = walk.hops[0][0]
        if not (0 <= first_vertex < graph.num_vertices):
            problems.append((i, f"start vertex {first_vertex} out of range"))
            continue
        if not is_temporal_path(graph, walk.hops):
            problems.append((i, "not a temporal path of the graph"))
    return count, problems
