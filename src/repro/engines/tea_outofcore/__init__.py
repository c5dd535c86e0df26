"""TEA's out-of-core mode (paper §4.1, Figure 14).

:class:`BatchTeaOutOfCoreEngine` advances the whole frontier over a
disk-resident PAT: vectorised sampling over whole-trunk payload
matrices, coalesced reads, async prefetch and the scan-resistant frame
pool (``batch``, ``prefetch``).
"""

from repro.engines.tea_outofcore.batch import (
    DEFAULT_OOC_CACHE_BYTES,
    DEFAULT_OOC_TRUNK_SIZE,
    BatchTeaOutOfCoreEngine,
    ooc_sample_batch,
)
from repro.engines.tea_outofcore.prefetch import AsyncPrefetcher

__all__ = [
    "AsyncPrefetcher",
    "BatchTeaOutOfCoreEngine",
    "DEFAULT_OOC_CACHE_BYTES",
    "DEFAULT_OOC_TRUNK_SIZE",
    "ooc_sample_batch",
]
