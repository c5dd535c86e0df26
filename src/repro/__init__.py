"""TEA: A General-Purpose Temporal Graph Random Walk Engine — reproduction.

A from-scratch Python implementation of the EuroSys '23 paper (Huan et
al.), including the hybrid ITS+alias sampling core (PAT / HPAT /
auxiliary index), the temporal-centric programming model, streaming
support, out-of-core execution, and faithful reimplementations of the
baselines the paper evaluates against (GraphWalker, KnightKing, CTDNE).

Quickstart::

    from repro import load_dataset, TeaEngine, Workload, temporal_node2vec

    graph = load_dataset("growth", seed=0)
    engine = TeaEngine(graph, temporal_node2vec(p=0.5, q=2.0))
    result = engine.run(Workload(max_length=80, max_walks=100), seed=1)
    print(result.summary())
"""

from repro.graph import (
    EdgeStream,
    TemporalEdge,
    TemporalGraph,
    load_dataset,
    temporal_erdos_renyi,
    temporal_powerlaw,
    toy_commute_graph,
)
from repro.core import (
    AuxiliaryIndex,
    HierarchicalPAT,
    IncrementalHPAT,
    OutOfCorePAT,
    PersistentAliasTable,
    WeightModel,
)
from repro.engines import (
    BatchTeaOutOfCoreEngine,
    CtdneEngine,
    Engine,
    EngineResult,
    GraphWalkerEngine,
    KnightKingEngine,
    TeaEngine,
    Workload,
)
from repro.walks import (
    WalkSpec,
    exponential_walk,
    linear_walk,
    temporal_node2vec,
    unbiased_walk,
)
from repro.streaming import StreamingTeaEngine

__version__ = "1.0.0"

__all__ = [
    "EdgeStream",
    "TemporalEdge",
    "TemporalGraph",
    "load_dataset",
    "temporal_erdos_renyi",
    "temporal_powerlaw",
    "toy_commute_graph",
    "AuxiliaryIndex",
    "HierarchicalPAT",
    "IncrementalHPAT",
    "OutOfCorePAT",
    "PersistentAliasTable",
    "WeightModel",
    "CtdneEngine",
    "Engine",
    "EngineResult",
    "GraphWalkerEngine",
    "KnightKingEngine",
    "TeaEngine",
    "BatchTeaOutOfCoreEngine",
    "Workload",
    "WalkSpec",
    "exponential_walk",
    "linear_walk",
    "temporal_node2vec",
    "unbiased_walk",
    "StreamingTeaEngine",
    "__version__",
]
