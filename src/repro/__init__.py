"""repro — Keyword-aware Optimal Route Search (KOR).

A from-scratch reproduction of Cao, Chen, Cong, Xiao, *Keyword-aware
Optimal Route Search*, PVLDB 5(11), 2012: the KOR/KkR query model, the
OSScaling and BucketBound approximation algorithms, the Greedy heuristic,
the pre-processing and indexing substrates they rely on, synthetic
workload generators matching the paper's evaluation, and a benchmark
harness regenerating every figure of Section 4.

Quickstart::

    from repro import KOREngine, figure_1_graph

    graph = figure_1_graph()
    engine = KOREngine(graph)
    result = engine.query(source=0, target=7, keywords=["t1", "t2", "t3"],
                          budget_limit=8.0, algorithm="osscaling")
    print(result.route.describe(graph))   # v0 -> v3 -> v4 -> v7 (OS=4, BS=7)
"""

from repro.core import (
    ALGORITHMS,
    KOREngine,
    KORQuery,
    KORResult,
    KkRResult,
    Route,
    SearchStats,
    SearchTrace,
    branch_and_bound,
    bucket_bound,
    bucket_bound_top_k,
    exhaustive_search,
    greedy,
    os_scaling,
    os_scaling_top_k,
)
from repro.exceptions import (
    DatasetError,
    GraphError,
    PrepError,
    QueryError,
    ReproError,
)
from repro.graph import (
    GraphBuilder,
    KeywordTable,
    SpatialKeywordGraph,
    figure_1_graph,
    validate_graph,
)
from repro.index import InvertedIndex, Vocabulary
from repro.prep import CostTables
from repro.service import (
    BatchError,
    BatchReport,
    ExecutionBackend,
    ProcessBackend,
    QueryService,
    ResultCache,
    SerialBackend,
    ServiceStats,
    ShardedQueryService,
    canonical_cache_key,
)

__version__ = "1.0.0"

__all__ = [
    "ALGORITHMS",
    "BatchError",
    "BatchReport",
    "CostTables",
    "DatasetError",
    "ExecutionBackend",
    "GraphBuilder",
    "GraphError",
    "InvertedIndex",
    "KOREngine",
    "KORQuery",
    "KORResult",
    "KeywordTable",
    "KkRResult",
    "PrepError",
    "ProcessBackend",
    "QueryError",
    "QueryService",
    "ReproError",
    "ResultCache",
    "Route",
    "SearchStats",
    "SearchTrace",
    "SerialBackend",
    "ServiceStats",
    "ShardedQueryService",
    "SpatialKeywordGraph",
    "Vocabulary",
    "branch_and_bound",
    "bucket_bound",
    "bucket_bound_top_k",
    "canonical_cache_key",
    "exhaustive_search",
    "figure_1_graph",
    "greedy",
    "os_scaling",
    "os_scaling_top_k",
    "validate_graph",
    "__version__",
]
