"""Walker state and recorded paths.

A temporal walk is a sequence of (vertex, arrival-time) hops; the start
vertex has no arrival time (``None``), matching the paper's definition of
a temporal path P = e1·e2·…·e_{n−1} with strictly increasing times.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

Hop = Tuple[int, Optional[float]]

#: Walks per block of a corpus on disk or of materialised paths: paper
#: §4.1 flushes walks "when the number of them reaches 1,024".
BLOCK_WALKS = 1024


@dataclass
class WalkPath:
    """One finished temporal walk."""

    hops: List[Hop]

    @property
    def vertices(self) -> List[int]:
        return [v for v, _ in self.hops]

    @property
    def times(self) -> List[Optional[float]]:
        return [t for _, t in self.hops]

    def __len__(self) -> int:
        return len(self.hops)

    @property
    def num_edges(self) -> int:
        return max(0, len(self.hops) - 1)


def walk_paths(starts: np.ndarray, lengths: np.ndarray, vertices: np.ndarray,
               times: np.ndarray) -> List[WalkPath]:
    """One :class:`WalkPath` per walk of a block of columns: walk ``i``
    starts at ``starts[i]`` and takes the next ``lengths[i]`` hops of the
    flat ``vertices`` / ``times`` (CSR order). No array slice per walk."""
    hops = list(zip(vertices.tolist(), times.tolist()))
    ends = np.cumsum(lengths).tolist()
    return list(map(WalkPath, [
        [(start, None)] + hops[first:end]
        for start, first, end in zip(starts.tolist(), [0] + ends, ends)
    ]))


@dataclass
class Walker:
    """Mutable walk state: current and previous (vertex, time)."""

    start_vertex: int
    hops: List[Hop] = field(default_factory=list)

    def __post_init__(self):
        if not self.hops:
            self.hops.append((self.start_vertex, None))

    @property
    def current_vertex(self) -> int:
        return self.hops[-1][0]

    @property
    def current_time(self) -> Optional[float]:
        return self.hops[-1][1]

    @property
    def previous_vertex(self) -> Optional[int]:
        """The vertex before the current one (node2vec's w), if any."""
        if len(self.hops) < 2:
            return None
        return self.hops[-2][0]

    def advance(self, vertex: int, time: float) -> None:
        self.hops.append((vertex, time))

    def finish(self) -> WalkPath:
        return WalkPath(hops=list(self.hops))

    @property
    def num_edges(self) -> int:
        return len(self.hops) - 1
