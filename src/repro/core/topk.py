"""Keyword-aware top-k route search — KkR (Section 3.5).

Both approximation algorithms extend to returning the ``k`` best feasible
routes by (a) relaxing Definition 6 to *k-domination* — a label is
discarded only when at least ``k`` stored labels dominate it — and (b)
collecting feasible completions instead of stopping at the first:

* OSScaling-k keeps the best ``k`` completions found so far; the k-th
  best objective score plays the role of the upper bound ``U``.  (The
  paper says "budget score of the kth best route"; pruning compares
  objectives, so this is read as a typo for *objective* score.)
* BucketBound-k terminates once ``k`` feasible routes have been found in
  the lowest non-empty bucket.

Unlike the top-1 algorithms, a label that covers every keyword keeps
getting extended after its tau-completion is recorded — its *second*-best
completion may be one of the k answers.  Completions are deduplicated on
their node sequences (two labels can describe the same physical route
split at different points).

Both are :class:`repro.core.searchbase.LabelSearch` — the top-1 loop and
label treatment — with a :class:`TopKCollector` as the answer set; they
take the top-1 searches' tuning parameters.
"""

from __future__ import annotations

import math

from repro.core.bucketbound import BucketQueue
from repro.core.deadline import Deadline
from repro.core.label import Label
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KkRResult, SearchTrace
from repro.core.route import Route
from repro.core.searchbase import LabelHeap, LabelSearch, SearchContext
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["os_scaling_top_k", "bucket_bound_top_k", "TopKCollector"]


def _rank(route: Route) -> tuple[float, float, tuple[int, ...]]:
    """Best first: lower objective, then lower budget, then node order."""
    return (route.objective_score, route.budget_score, route.nodes)


class TopKCollector:
    """Keeps the ``k`` best distinct routes by (objective, budget).

    As a :class:`~repro.core.searchbase.LabelSearch` answer set it records
    each feasible all-covering label's tau completion and leaves the label
    in play.  ``upper_bound`` is the objective of the k-th best route, or
    inf while fewer than ``k`` are held.
    """

    consumes = False

    def __init__(self, k: int) -> None:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self.k = k
        self.upper_bound = math.inf
        self._routes: list[Route] = []
        self._seen: set[tuple[int, ...]] = set()

    def add(self, route: Route) -> bool:
        """Insert *route*; returns False for duplicates / not-top-k."""
        if route.nodes in self._seen:
            return False
        if len(self._routes) == self.k and not _rank(route) < _rank(self._routes[-1]):
            return False
        self._seen.add(route.nodes)
        self._routes.append(route)
        self._routes.sort(key=_rank)
        if len(self._routes) > self.k:
            evicted = self._routes.pop()
            self._seen.discard(evicted.nodes)
        if len(self._routes) == self.k:
            self.upper_bound = self._routes[-1].objective_score
        return True

    def offer(self, ctx: SearchContext, label: Label, low: float) -> bool:
        return self.add(ctx.materialize(label))

    def result(self, search: LabelSearch, failure_reason: str | None) -> KkRResult:
        return KkRResult(
            query=search.query,
            algorithm=search.algorithm,
            k=self.k,
            routes=self.routes,
            stats=search.stats,
        )

    @property
    def routes(self) -> list[Route]:
        """Best-first list of collected routes."""
        return list(self._routes)

    def __len__(self) -> int:
        return len(self._routes)


def os_scaling_top_k(
    graph: SpatialKeywordGraph,
    tables: CostTables,
    index: InvertedIndex,
    query: KORQuery,
    k: int,
    epsilon: float = 0.5,
    use_strategy1: bool = True,
    use_strategy2: bool = True,
    infrequent_threshold: float = 0.01,
    trace: SearchTrace | None = None,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KkRResult:
    """OSScaling-k: the k-th best objective plays the role of ``U``."""
    return LabelSearch(
        graph,
        tables,
        index,
        query,
        "osscaling-topk",
        lambda _ctx: LabelHeap(),
        TopKCollector(k),
        epsilon=epsilon,
        use_strategy1=use_strategy1,
        use_strategy2=use_strategy2,
        infrequent_threshold=infrequent_threshold,
        trace=trace,
        binding=binding,
        deadline=deadline,
    ).run()


def bucket_bound_top_k(
    graph: SpatialKeywordGraph,
    tables: CostTables,
    index: InvertedIndex,
    query: KORQuery,
    k: int,
    epsilon: float = 0.5,
    beta: float = 1.2,
    use_strategy1: bool = True,
    use_strategy2: bool = True,
    infrequent_threshold: float = 0.01,
    trace: SearchTrace | None = None,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KkRResult:
    """BucketBound-k: stops once the lowest non-empty bucket reaches the
    k-th best route's (Section 3.5)."""
    return LabelSearch(
        graph,
        tables,
        index,
        query,
        "bucketbound-topk",
        BucketQueue.factory(beta),
        TopKCollector(k),
        epsilon=epsilon,
        use_strategy1=use_strategy1,
        use_strategy2=use_strategy2,
        infrequent_threshold=infrequent_threshold,
        trace=trace,
        binding=binding,
        deadline=deadline,
    ).run()
