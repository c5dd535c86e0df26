"""Monte Carlo sampling primitives (paper Section 2.2).

Inverse transform sampling (prefix sums + an instrumented binary
search), the alias method, and the full-scan draw GraphWalker uses, all
instrumented through :class:`~repro.sampling.counters.CostCounters` so
experiments can report the machine-independent "edges evaluated per
step" metric of the paper's Figure 2. The per-vertex ITS structure is
:class:`repro.core.its_index.ITSIndex`; rejection sampling lives in the
one engine that uses it, :class:`repro.engines.knightking.KnightKingEngine`.
"""

from repro.sampling.counters import CostCounters
from repro.sampling.prefix_sum import build_prefix_sums, its_search
from repro.sampling.alias import (
    AliasTable,
    build_alias_arrays,
    build_alias_arrays_batch,
    build_alias_tables,
    alias_draw,
)
from repro.sampling.fullscan import full_scan_sample

__all__ = [
    "CostCounters",
    "build_prefix_sums",
    "its_search",
    "AliasTable",
    "build_alias_arrays",
    "build_alias_arrays_batch",
    "build_alias_tables",
    "alias_draw",
    "full_scan_sample",
]
