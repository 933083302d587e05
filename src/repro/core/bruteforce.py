"""Exact baselines.

Two flavours:

* :func:`exhaustive_search` — the naive search sketched at the start of
  Section 3.2: enumerate every budget-feasible walk from the source.
  Complexity ``O(d^(Delta/b_min))``; usable only on toy graphs, but it is
  entirely independent of the label/table machinery, which makes it the
  perfect oracle for property-based tests.
* :func:`branch_and_bound` — Algorithm 1 run *unscaled* (``exact=True``):
  domination on true objective scores plus the admissible tau/sigma
  pruning.  Exact, and fast enough for hundreds of nodes; used to verify
  the Theorem 2/3 approximation bounds empirically.
"""

from __future__ import annotations

import time
from collections import deque

from repro.core.deadline import Deadline
from repro.core.osscaling import os_scaling
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KORResult, SearchStats
from repro.core.route import Route
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["exhaustive_search", "branch_and_bound"]


def exhaustive_search(
    graph: SpatialKeywordGraph,
    index: InvertedIndex,
    query: KORQuery,
    max_expansions: int = 2_000_000,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KORResult:
    """Enumerate every budget-feasible walk; return the true optimum.

    Raises :class:`QueryError` after *max_expansions* queue pops, which keeps
    accidental use on non-toy inputs from hanging the test suite.
    """
    start = time.perf_counter()
    stats = SearchStats()
    if binding is None:
        binding = QueryBinding.bind(graph, index, query)
    delta = query.budget_limit
    full_mask = binding.full_mask

    best: tuple[float, float, tuple[int, ...]] | None = None
    source_mask = binding.node_mask(query.source)
    queue: deque[tuple[int, int, float, float, tuple[int, ...]]] = deque(
        [(query.source, source_mask, 0.0, 0.0, (query.source,))]
    )
    expansions = 0
    while queue:
        if deadline is not None:
            deadline.tick()
        node, mask, os_score, bs_score, path = queue.popleft()
        expansions += 1
        if expansions > max_expansions:
            raise QueryError(
                f"exhaustive search exceeded {max_expansions} expansions; "
                "use branch_and_bound for anything beyond toy graphs"
            )
        if node == query.target and mask == full_mask:
            key = (os_score, bs_score, path)
            if best is None or key < best:
                best = key
        for v, obj, bud in graph.out_edges(node):
            new_bs = bs_score + bud
            if new_bs > delta:
                stats.labels_pruned_budget += 1
                continue
            queue.append((v, mask | binding.node_mask(v), os_score + obj, new_bs, path + (v,)))
            stats.labels_created += 1

    stats.loops = expansions
    stats.runtime_seconds = time.perf_counter() - start
    if best is None:
        return KORResult(
            query=query,
            algorithm="exhaustive",
            route=None,
            covers_keywords=False,
            within_budget=False,
            stats=stats,
            failure_reason="no feasible route exists",
        )
    os_score, bs_score, path = best
    route = Route.from_nodes(graph, path)
    return KORResult(
        query=query,
        algorithm="exhaustive",
        route=route,
        covers_keywords=True,
        within_budget=True,
        stats=stats,
    )


def branch_and_bound(
    graph: SpatialKeywordGraph,
    tables: CostTables,
    index: InvertedIndex,
    query: KORQuery,
    use_strategy1: bool = True,
    use_strategy2: bool = True,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KORResult:
    """Exact KOR via the unscaled label search (Algorithm 1, theta -> 0).

    Domination on true objective scores never discards all optimal
    prefixes, and every prune is admissible, so the returned route is a
    true optimum (or "no feasible route" is proven).
    """
    return os_scaling(
        graph,
        tables,
        index,
        query,
        use_strategy1=use_strategy1,
        use_strategy2=use_strategy2,
        exact=True,
        binding=binding,
        deadline=deadline,
    )
