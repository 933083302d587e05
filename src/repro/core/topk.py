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
"""

from __future__ import annotations

import heapq
import time

from repro.core.bucketbound import BucketQueue
from repro.core.deadline import Deadline
from repro.core.label import VIA_JUMP, Label, LabelStore, label_sort_key
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KkRResult, SearchStats
from repro.core.route import Route
from repro.core.scaling import ScalingContext
from repro.core.searchbase import SearchContext
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["os_scaling_top_k", "bucket_bound_top_k", "TopKCollector"]


class TopKCollector:
    """Keeps the ``k`` best distinct routes by (objective, budget)."""

    def __init__(self, k: int) -> None:
        if k < 1:
            raise QueryError(f"k must be >= 1, got {k}")
        self.k = k
        self._routes: list[Route] = []
        self._seen: set[tuple[int, ...]] = set()

    def add(self, route: Route) -> bool:
        """Insert *route*; returns False for duplicates / not-top-k."""
        if route.nodes in self._seen:
            return False
        if len(self._routes) == self.k and not self._better(route, self._routes[-1]):
            return False
        self._seen.add(route.nodes)
        self._routes.append(route)
        self._routes.sort(key=lambda r: (r.objective_score, r.budget_score, r.nodes))
        if len(self._routes) > self.k:
            evicted = self._routes.pop()
            self._seen.discard(evicted.nodes)
        return True

    @staticmethod
    def _better(a: Route, b: Route) -> bool:
        return (a.objective_score, a.budget_score, a.nodes) < (
            b.objective_score,
            b.budget_score,
            b.nodes,
        )

    @property
    def upper_bound(self) -> float:
        """Objective of the k-th best route, or inf while under-filled."""
        if len(self._routes) < self.k:
            return float("inf")
        return self._routes[-1].objective_score

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
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KkRResult:
    """OSScaling extended to the KkR query with k-domination.

    ``deadline`` ticks once per heap pop, as in the top-1 search.
    """
    start = time.perf_counter()
    stats = SearchStats()
    scaling = ScalingContext.for_query(graph, query.budget_limit, epsilon)
    ctx = SearchContext(graph, tables, index, query, scaling, binding=binding)
    collector = TopKCollector(k)

    if ctx.impossibility_reason() is not None:
        stats.runtime_seconds = time.perf_counter() - start
        return KkRResult(query=query, algorithm="osscaling-topk", k=k, routes=[], stats=stats)

    delta = query.budget_limit
    full_mask = ctx.binding.full_mask
    store = LabelStore(graph.num_nodes, k=k)
    heap: list[tuple[tuple[int, float, float, int], Label]] = []

    root = ctx.root_label()
    heapq.heappush(heap, (label_sort_key(root), root))
    store.insert(root)
    if root.mask == full_mask and ctx.bs_tau_t_list[query.source] <= delta:
        collector.add(ctx.materialize(root))
        stats.bound_updates += 1

    def on_evict(_victim: Label) -> None:
        stats.labels_evicted += 1

    def consider(parent: Label, node: int, seg_os: float, seg_bs: float, seg_sos: float, via: int) -> None:
        stats.labels_created += 1
        new_mask = parent.mask | ctx.binding.node_mask(node)
        new_os = parent.os + seg_os
        new_bs = parent.bs + seg_bs
        if new_bs + ctx.bs_sigma_t_list[node] > delta:
            stats.labels_pruned_budget += 1
            return
        upper = collector.upper_bound
        if not (new_os + ctx.os_tau_t_list[node] < upper):
            stats.labels_pruned_bound += 1
            return
        if use_strategy2 and ctx.strategy2_rejects(node, new_mask, new_os, new_bs, upper):
            stats.labels_pruned_strategy2 += 1
            return
        label = Label(node, new_mask, parent.scaled_os + seg_sos, new_os, new_bs, parent=parent, via=via)
        if store.is_dominated(label):
            stats.labels_pruned_dominated += 1
            return
        if new_mask == full_mask and new_bs + ctx.bs_tau_t_list[node] <= delta:
            # Feasible tau-completion: one candidate route.  The label stays
            # in play — its other completions may rank among the k best.
            if collector.add(ctx.materialize(label)):
                stats.bound_updates += 1
        heapq.heappush(heap, (label_sort_key(label), label))
        store.insert(label, on_evict)
        stats.labels_enqueued += 1

    while heap:
        if deadline is not None:
            deadline.tick()
        _key, label = heapq.heappop(heap)
        if not label.alive:
            continue
        stats.loops += 1
        if label.os + ctx.os_tau_t_list[label.node] > collector.upper_bound:
            continue
        ctx.expand(label, collector.upper_bound, stats, consider)
        if use_strategy1 and label.mask != full_mask:
            jump = ctx.jump_candidate(label)
            if jump is not None:
                vj, seg_os, seg_bs = jump
                stats.jump_labels_created += 1
                consider(label, vj, seg_os, seg_bs, ctx.scaling.scale(seg_os), VIA_JUMP)

    stats.runtime_seconds = time.perf_counter() - start
    return KkRResult(
        query=query, algorithm="osscaling-topk", k=k, routes=collector.routes, stats=stats
    )


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
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KkRResult:
    """BucketBound extended to the KkR query.

    Stops once ``k`` feasible routes have been collected from the lowest
    non-empty bucket (Section 3.5).  ``deadline`` ticks once per pop, as
    in the top-1 search.
    """
    start = time.perf_counter()
    stats = SearchStats()
    scaling = ScalingContext.for_query(graph, query.budget_limit, epsilon)
    ctx = SearchContext(graph, tables, index, query, scaling, binding=binding)
    collector = TopKCollector(k)

    if ctx.impossibility_reason() is not None:
        stats.runtime_seconds = time.perf_counter() - start
        return KkRResult(query=query, algorithm="bucketbound-topk", k=k, routes=[], stats=stats)

    delta = query.budget_limit
    full_mask = ctx.binding.full_mask
    source = query.source
    base = float(ctx.os_tau_t_list[source])
    if base <= 0.0:
        base = graph.min_objective
    queue = BucketQueue(base, beta)
    store = LabelStore(graph.num_nodes, k=k)

    root = ctx.root_label()
    queue.push(root, root.os + ctx.os_tau_t_list[source])
    store.insert(root)
    if root.mask == full_mask and ctx.bs_tau_t_list[source] <= delta:
        collector.add(ctx.materialize(root))

    def on_evict(_victim: Label) -> None:
        stats.labels_evicted += 1

    def consider(parent: Label, node: int, seg_os: float, seg_bs: float, seg_sos: float, via: int) -> None:
        stats.labels_created += 1
        new_mask = parent.mask | ctx.binding.node_mask(node)
        new_os = parent.os + seg_os
        new_bs = parent.bs + seg_bs
        if new_bs + ctx.bs_sigma_t_list[node] > delta:
            stats.labels_pruned_budget += 1
            return
        low = new_os + ctx.os_tau_t_list[node]
        upper = collector.upper_bound
        if low >= upper:
            # LOW is monotone along extensions, so neither this label's own
            # completions nor any of its descendants' can displace the
            # current k-th best candidate (the top-k twin of the top-1
            # best-low prune).
            stats.labels_pruned_bound += 1
            return
        if use_strategy2 and ctx.strategy2_rejects(node, new_mask, new_os, new_bs, upper):
            stats.labels_pruned_strategy2 += 1
            return
        label = Label(node, new_mask, parent.scaled_os + seg_sos, new_os, new_bs, parent=parent, via=via)
        if store.is_dominated(label):
            stats.labels_pruned_dominated += 1
            return
        if new_mask == full_mask and new_bs + ctx.bs_tau_t_list[node] <= delta:
            # Feasible tau-completion: one candidate route.  Unlike the
            # top-1 algorithm the label still enters the queue — its
            # *other* completions may rank among the k answers.
            if collector.add(ctx.materialize(label)):
                stats.bound_updates += 1
        queue.push(label, low)
        store.insert(label, on_evict)
        stats.labels_enqueued += 1

    while True:
        if deadline is not None:
            deadline.tick()
        frontier = queue.peek_bucket()
        if frontier is None:
            break
        if len(collector) >= k and frontier >= queue.bucket_index(collector.upper_bound):
            # Section 3.5's termination: the k feasible routes collected so
            # far all sit at or below the frontier bucket, and every
            # remaining label completes to something no better.
            break
        _bucket, label = queue.pop()
        stats.loops += 1
        if label.os + ctx.os_tau_t_list[label.node] >= collector.upper_bound:
            continue  # filed before the k-th candidate existed; stale now
        ctx.expand(label, collector.upper_bound, stats, consider)
        if use_strategy1 and label.mask != full_mask:
            jump = ctx.jump_candidate(label)
            if jump is not None:
                vj, seg_os, seg_bs = jump
                stats.jump_labels_created += 1
                consider(label, vj, seg_os, seg_bs, ctx.scaling.scale(seg_os), VIA_JUMP)

    stats.buckets_opened = queue.buckets_opened
    stats.runtime_seconds = time.perf_counter() - start
    return KkRResult(
        query=query, algorithm="bucketbound-topk", k=k, routes=collector.routes, stats=stats
    )
