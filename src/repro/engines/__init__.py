"""Random-walk engines: TEA and the paper's baselines.

* :class:`~repro.engines.tea.TeaEngine` — the paper's system, with the
  sampling structure selectable (HPAT / PAT / pure ITS / full alias) so
  the Figure 11/12 ablations are configurations, not forks;
* :class:`~repro.engines.graphwalker.GraphWalkerEngine` — full-scan
  rebuild on dynamic weights, ITS on static ones (in-memory or
  out-of-core);
* :class:`~repro.engines.knightking.KnightKingEngine` — rejection
  sampling with a max-weight envelope (1-node, or the modeled 8-node
  cluster of the paper's setup);
* :class:`~repro.engines.ctdne.CtdneEngine` — the reference
  implementation style: per-step dynamic weight evaluation in
  interpreter-speed code;
* :class:`~repro.engines.tea_outofcore.BatchTeaOutOfCoreEngine` — PAT
  with disk-resident trunks, walked a frontier at a time (coalesced
  reads, scan-resistant cache);
* :class:`~repro.parallel.ParallelBatchTeaEngine` — the frontier kernel
  run chunk-parallel across worker processes/threads over a shared
  prepared index (re-exported here for discoverability).

All engines share :class:`~repro.engines.base.Engine`'s walk loop
(Algorithm 2), differing only in how one edge is sampled from a candidate
set and in what they precompute.
"""

from repro.engines.base import Engine, EngineResult, Workload
from repro.engines.tea import TeaEngine
from repro.engines.batch import BatchTeaEngine
from repro.engines.graphwalker import GraphWalkerEngine
from repro.engines.knightking import KnightKingEngine
from repro.engines.ctdne import CtdneEngine
from repro.engines.tea_outofcore import BatchTeaOutOfCoreEngine

# Imported last: repro.parallel builds on repro.engines.batch, which is
# already bound above, so this re-export cannot recurse.
from repro.parallel.engine import ParallelBatchTeaEngine

__all__ = [
    "Engine",
    "EngineResult",
    "Workload",
    "TeaEngine",
    "BatchTeaEngine",
    "GraphWalkerEngine",
    "KnightKingEngine",
    "CtdneEngine",
    "BatchTeaOutOfCoreEngine",
    "ParallelBatchTeaEngine",
]
