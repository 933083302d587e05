"""The KOR engine — one-stop facade over the whole system.

Build it once per graph (pre-processing the tau/sigma tables and the
inverted index), then answer any number of KOR / KkR queries with any of
the paper's algorithms::

    engine = KOREngine(graph)
    result = engine.query(source=0, target=7, keywords=["pub", "mall"],
                          budget_limit=8.0, algorithm="bucketbound")
    if result.feasible:
        print(result.route.describe(graph))
"""

from __future__ import annotations

from typing import Iterable

from repro.core.bruteforce import branch_and_bound, exhaustive_search
from repro.core.bucketbound import bucket_bound
from repro.core.greedy import greedy
from repro.core.osscaling import os_scaling
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KkRResult, KORResult
from repro.core.topk import bucket_bound_top_k, os_scaling_top_k
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["KOREngine", "ALGORITHMS"]

#: Names accepted by :meth:`KOREngine.query`.
ALGORITHMS = (
    "osscaling",
    "bucketbound",
    "greedy",
    "greedy2",
    "exact",
    "exhaustive",
)


class KOREngine:
    """Pre-processed graph + dispatch to every algorithm in the paper."""

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        tables: CostTables | None = None,
        index: InvertedIndex | None = None,
        predecessors: bool = True,
    ) -> None:
        self._graph = graph
        self._tables = (
            tables
            if tables is not None
            else CostTables.from_graph(graph, predecessors=predecessors)
        )
        self._index = index if index is not None else InvertedIndex.from_graph(graph)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SpatialKeywordGraph:
        """The underlying spatial-keyword graph."""
        return self._graph

    @property
    def tables(self) -> CostTables:
        """The pre-processed tau/sigma cost tables."""
        return self._tables

    @property
    def index(self) -> InvertedIndex:
        """The inverted keyword index."""
        return self._index

    # ------------------------------------------------------------------
    # reusable query context
    # ------------------------------------------------------------------
    def candidate_sets(self, keywords: Iterable[str]) -> dict[int, "object"]:
        """Per-keyword candidate node sets for *keywords*, fetched once.

        Resolves each distinct keyword through the graph's keyword table
        and the inverted index (words absent from the vocabulary are
        skipped — binding treats them as empty).  The returned map feeds
        :meth:`bind`'s ``candidates`` argument, letting a batch of queries
        that share keywords pay for each posting lookup exactly once.
        """
        ids = [
            kid
            for kid in (self._graph.keyword_table.get(word) for word in keywords)
            if kid is not None
        ]
        return self._index.candidate_sets(ids)

    def bind(self, query: KORQuery, candidates: dict | None = None) -> QueryBinding:
        """Build the reusable per-query context (validates endpoints).

        The returned :class:`QueryBinding` is read-only and can be handed
        to :meth:`run` (``binding=``) any number of times, including from
        concurrent threads.
        """
        return QueryBinding.bind(self._graph, self._index, query, candidates=candidates)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
        algorithm: str = "bucketbound",
        **params,
    ) -> KORResult:
        """Answer one KOR query.

        ``algorithm`` is one of :data:`ALGORITHMS`; ``params`` are passed
        through (``epsilon``, ``beta``, ``alpha``, ``width``, ``mode``,
        ``use_strategy1``, ``use_strategy2``, ``trace``...).
        """
        query = KORQuery(source, target, tuple(keywords), budget_limit)
        return self.run(query, algorithm=algorithm, **params)

    def run(self, query: KORQuery, algorithm: str = "bucketbound", **params) -> KORResult:
        """Answer a pre-built :class:`KORQuery`.

        ``params`` may carry ``binding=`` (a context from :meth:`bind`) or
        ``candidates=`` (a map from :meth:`candidate_sets`); either skips
        the per-query index lookups — the serving layer's batch path.
        """
        graph, tables, index = self._graph, self._tables, self._index
        deadline = params.get("deadline")
        if deadline is not None:
            # Refuse to start a search whose caller already gave up.
            deadline.check()
        candidates = params.pop("candidates", None)
        if candidates is not None and params.get("binding") is None:
            params["binding"] = self.bind(query, candidates=candidates)
        if algorithm == "osscaling":
            return os_scaling(graph, tables, index, query, **params)
        if algorithm == "bucketbound":
            return bucket_bound(graph, tables, index, query, **params)
        if algorithm == "greedy":
            return greedy(graph, tables, index, query, **params)
        if algorithm == "greedy2":
            params.setdefault("width", 2)
            return greedy(graph, tables, index, query, **params)
        if algorithm == "exact":
            return branch_and_bound(graph, tables, index, query, **params)
        if algorithm == "exhaustive":
            return exhaustive_search(graph, index, query, **params)
        raise QueryError(
            f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
        )

    def top_k(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
        k: int,
        algorithm: str = "bucketbound",
        **params,
    ) -> KkRResult:
        """Answer one KkR (top-k) query with either approximation algorithm.

        ``params`` may carry ``deadline=``; like :meth:`run`, an already
        expired one refuses the search before it starts.
        """
        query = KORQuery(source, target, tuple(keywords), budget_limit)
        deadline = params.get("deadline")
        if deadline is not None:
            deadline.check()
        if algorithm == "osscaling":
            return os_scaling_top_k(self._graph, self._tables, self._index, query, k, **params)
        if algorithm == "bucketbound":
            return bucket_bound_top_k(self._graph, self._tables, self._index, query, k, **params)
        raise QueryError(
            f"unknown top-k algorithm {algorithm!r}; expected 'osscaling' or 'bucketbound'"
        )
