"""TEA's out-of-core mode (paper §4.1, Figure 14).

:class:`BatchTeaOutOfCoreEngine` advances the whole frontier over a
disk-resident PAT: vectorised sampling over whole-trunk payload
matrices, coalesced reads and the scan-resistant frame pool (``batch``).
"""

from repro.engines.tea_outofcore.batch import (
    DEFAULT_OOC_CACHE_BYTES,
    DEFAULT_OOC_TRUNK_SIZE,
    BatchTeaOutOfCoreEngine,
    ooc_sample_batch,
)

__all__ = [
    "BatchTeaOutOfCoreEngine",
    "DEFAULT_OOC_CACHE_BYTES",
    "DEFAULT_OOC_TRUNK_SIZE",
    "ooc_sample_batch",
]
