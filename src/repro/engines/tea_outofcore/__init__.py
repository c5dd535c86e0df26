"""TEA's out-of-core mode (paper §4.1, Figure 14): two engines.

* :class:`TeaOutOfCoreEngine` — the scalar reference: one synchronous
  trunk read per walker step (``scalar``).
* :class:`BatchTeaOutOfCoreEngine` — the batched fast path: frontier
  vectorised sampling over whole-trunk payload matrices, coalesced
  reads, async prefetch and the scan-resistant frame pool (``batch``,
  ``prefetch``).
"""

from repro.engines.tea_outofcore.batch import (
    DEFAULT_OOC_CACHE_BYTES,
    BatchTeaOutOfCoreEngine,
    ooc_sample_batch,
)
from repro.engines.tea_outofcore.prefetch import AsyncPrefetcher
from repro.engines.tea_outofcore.scalar import (
    DEFAULT_OOC_TRUNK_SIZE,
    TeaOutOfCoreEngine,
    build_ooc_index,
)

__all__ = [
    "AsyncPrefetcher",
    "BatchTeaOutOfCoreEngine",
    "DEFAULT_OOC_CACHE_BYTES",
    "DEFAULT_OOC_TRUNK_SIZE",
    "TeaOutOfCoreEngine",
    "build_ooc_index",
    "ooc_sample_batch",
]
