"""BucketBound — the paper's second approximation algorithm (Algorithm 2).

Labels are organised in geometric *buckets* over their best possible
completion score ``LOW(L) = L.OS + OS(tau_{i,t})`` (Lemma 3): bucket
``B_r`` covers ``[beta^r * OS(tau_{s,t}), beta^{r+1} * OS(tau_{s,t}))``
(Definition 9).  The search always draws from the lowest non-empty bucket;
once a feasible route is found whose label sits in that same bucket, the
route provably shares a bucket with OSScaling's answer (Lemma 5), so the
algorithm stops immediately with approximation ratio ``beta / (1 - eps)``
(Theorem 3).

Two deviations from the pseudocode: budget comparisons use ``<= Delta``
(Definition 4's semantics), and the Lemma-5 termination test also runs
when an all-covering label is *dequeued* from the current bucket (the
pseudocode only tests at generation time; by then its bucket may not yet
have been the lowest non-empty one, and the lemma's precondition holds
at dequeue just as well).
"""

from __future__ import annotations

import heapq
import math
import time
from bisect import bisect_right

from repro.core.deadline import Deadline
from repro.core.label import VIA_JUMP, Label, LabelStore, label_sort_key
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KORResult, SearchStats, SearchTrace
from repro.core.scaling import ScalingContext
from repro.core.searchbase import SearchContext
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["bucket_bound", "BucketQueue"]


class BucketQueue:
    """Labels grouped in geometric buckets, each an order-8 min-heap.

    ``bucket_index`` maps ``LOW`` values to bucket numbers relative to the
    base score ``OS(tau_{s,t})``; drawing always happens from the lowest
    non-empty bucket (Algorithm 2 line 6).
    """

    def __init__(self, base: float, beta: float) -> None:
        if not beta > 1.0:
            raise ValueError(f"beta must be > 1, got {beta}")
        if not (base > 0.0 and math.isfinite(base)):
            raise ValueError(f"bucket base must be positive and finite, got {base}")
        self._base = base
        self._beta = float(beta)
        # Bucket edges ``base * beta^r``, grown on demand by iterative
        # multiplication.  Mapping LOW values onto buckets by searching this
        # one list (instead of ``floor(log(low/base)/log(beta) + fudge)``)
        # makes boundary values deterministic: a ``low`` landing *exactly* on
        # an edge always files in the bucket whose lower edge it is.  The
        # log/floor formulation could disagree with itself by one bucket at
        # edges (``log``'s rounding vs the 1e-12 fudge).
        self._edges: list[float] = [base]
        self._buckets: dict[int, list[tuple[tuple[int, float, float, int], Label]]] = {}
        self._ids: list[int] = []  # heap of bucket numbers, lazily pruned
        self._opened = 0

    def _grow_edges(self, low: float) -> None:
        edges = self._edges
        while edges[-1] <= low:
            edges.append(edges[-1] * self._beta)

    def bucket_index(self, low: float) -> int:
        """Definition 9's bucket number for a ``LOW`` value.

        Bucket ``r`` covers ``[base * beta^r, base * beta^(r+1))`` — closed
        below, open above — so an exact-edge ``low`` maps to the bucket it
        opens.
        """
        if low <= self._base:
            return 0
        if not math.isfinite(low):
            raise ValueError(f"bucket LOW values must be finite, got {low}")
        self._grow_edges(low)
        return bisect_right(self._edges, low) - 1

    def push(self, label: Label, low: float) -> int:
        """File *label* under its bucket; returns the bucket number."""
        index = self.bucket_index(low)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = []
            self._buckets[index] = bucket
            heapq.heappush(self._ids, index)
            self._opened += 1
        heapq.heappush(bucket, (label_sort_key(label), label))
        return index

    def pop(self) -> tuple[int, Label] | None:
        """Remove and return ``(bucket_number, label)`` from the lowest
        non-empty bucket, skipping labels evicted by domination; ``None``
        when everything is exhausted (Algorithm 2 line 7)."""
        while self._ids:
            index = self._ids[0]
            bucket = self._buckets.get(index)
            while bucket:
                _key, label = heapq.heappop(bucket)
                if label.alive:
                    return index, label
            # Bucket ran dry: retire its id (it may be re-opened by push).
            heapq.heappop(self._ids)
            self._buckets.pop(index, None)
        return None

    def peek_bucket(self) -> int | None:
        """Bucket number the next :meth:`pop` would draw from (None = empty).

        Dead labels are drained lazily so the answer is exact.
        """
        while self._ids:
            index = self._ids[0]
            bucket = self._buckets.get(index)
            while bucket and not bucket[0][1].alive:
                heapq.heappop(bucket)
            if bucket:
                return index
            heapq.heappop(self._ids)
            self._buckets.pop(index, None)
        return None

    @property
    def buckets_opened(self) -> int:
        """How many distinct buckets were materialised (for stats)."""
        return self._opened


class _BucketBoundSearch:
    """One BucketBound run, advanced label by label (see
    :class:`repro.core.osscaling._OSScalingSearch` for the driver
    protocol)."""

    algorithm_family = "bucketbound"
    algorithm = "bucketbound"

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        tables: CostTables,
        index: InvertedIndex,
        query: KORQuery,
        epsilon: float = 0.5,
        beta: float = 1.2,
        use_strategy1: bool = True,
        use_strategy2: bool = True,
        infrequent_threshold: float = 0.01,
        trace: SearchTrace | None = None,
        binding: QueryBinding | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self._start = time.perf_counter()
        self.stats = SearchStats()
        self.query = query
        self.trace = trace
        self.deadline = deadline
        self.use_strategy1 = use_strategy1
        self.use_strategy2 = use_strategy2

        scaling = ScalingContext.for_query(graph, query.budget_limit, epsilon)
        self.ctx = SearchContext(
            graph,
            tables,
            index,
            query,
            scaling,
            infrequent_threshold=infrequent_threshold,
            binding=binding,
        )
        ctx = self.ctx
        self.delta = query.budget_limit
        self.full_mask = ctx.binding.full_mask

        # The answer candidate.  A label that covers every keyword and
        # whose tau-completion fits the budget is never extended — tau is
        # its best completion (Lemma 3) — so it is registered here instead
        # of entering the queue.  ``best_low`` is the smallest candidate
        # completion score ``L* = LOW(L)`` seen so far and ``r_hat`` its
        # bucket; once the draw frontier reaches ``r_hat``, Lemma 5's
        # precondition holds (all lower buckets empty, feasible route in
        # the current one) and the candidate is the answer.  Because
        # ``LOW`` is monotone along extensions (``OS(tau)`` is an
        # admissible completion bound), any label with ``LOW >= L*`` can
        # neither beat the candidate nor affect termination, so it is
        # dropped at creation on a single float compare — a strictly
        # stronger prune than the per-bucket one (anything in a bucket
        # beyond ``r_hat`` has ``LOW > L*``).  This eager reading of
        # Lemma 5 is where BucketBound's speed over OSScaling comes from.
        self.best_candidate: Label | None = None
        self.best_low = float("inf")
        self.r_hat = float("inf")
        self._early: KORResult | None = None
        self._done = False
        self.queue: BucketQueue | None = None
        self._store = LabelStore(graph.num_nodes)

        reason = ctx.impossibility_reason(self.deadline)
        if reason is not None:
            self._early = self._package(None, failure_reason=reason)
            return

        source = query.source
        root = ctx.root_label()
        if root.mask == self.full_mask and ctx.bs_tau_t[source] <= self.delta:
            self._early = self._package(root, trivial=True)
            return

        base = float(ctx.os_tau_t_list[source])
        if base <= 0.0:
            # Degenerate only when source == target (OS(tau_{s,s}) = 0);
            # any positive base keeps Definition 9 well-defined, and o_min
            # is the smallest LOW any non-trivial completion can have.
            base = graph.min_objective
        self.queue = BucketQueue(base, beta)
        self.queue.push(root, root.os + ctx.os_tau_t_list[source])
        self._store.insert(root)
        self.stats.labels_enqueued += 1

    # ------------------------------------------------------------------
    # driver protocol
    # ------------------------------------------------------------------
    def pop(self) -> Label | None:
        """Next label from the lowest non-empty bucket, or ``None``.

        ``None`` signals Lemma 5's termination: every bucket below
        ``r_hat`` is empty and bucket ``r_hat`` holds a feasible route —
        or the queue is exhausted.
        """
        if self._early is not None or self._done:
            return None
        ctx = self.ctx
        queue = self.queue
        while True:
            if self.deadline is not None:
                self.deadline.tick()
            frontier = queue.peek_bucket()
            if frontier is None or frontier >= self.r_hat:
                self._done = True
                return None
            _bucket, label = queue.pop()  # == frontier
            self.stats.loops += 1
            if self.trace is not None:
                self.trace.record(
                    "dequeue", label.node, label.mask, label.scaled_os, label.os, label.bs
                )
            if label.os + ctx.os_tau_t_list[label.node] >= self.best_low:
                # Filed before the current candidate existed; stale now.
                continue
            return label

    def step(self, label: Label) -> None:
        """Treat one dequeued label: its out-edges in order, then the jump."""
        self.ctx.expand(
            label, self.best_low, self.stats, self.consider, per_edge=self.trace is not None
        )
        self.jump(label)

    def jump(self, label: Label) -> None:
        """Optimisation Strategy 1's extra extension for *label*."""
        if not self.use_strategy1 or label.mask == self.full_mask:
            return
        jump = self.ctx.jump_candidate(label)
        if jump is not None:
            vj, seg_os, seg_bs = jump
            self.stats.jump_labels_created += 1
            self.consider(label, vj, seg_os, seg_bs, self.ctx.scaling.scale(seg_os), VIA_JUMP)

    # ------------------------------------------------------------------
    # label treatment
    # ------------------------------------------------------------------
    def consider(
        self, parent: Label, node: int, seg_os: float, seg_bs: float, seg_sos: float, via: int
    ) -> None:
        ctx = self.ctx
        stats = self.stats
        stats.labels_created += 1
        new_mask = parent.mask | ctx.binding.node_mask(node)
        new_os = parent.os + seg_os
        new_bs = parent.bs + seg_bs
        new_sos = parent.scaled_os + seg_sos
        if self.trace is not None:
            self.trace.record("create", node, new_mask, new_sos, new_os, new_bs)

        if new_bs + ctx.bs_sigma_t_list[node] > self.delta:
            stats.labels_pruned_budget += 1
            if self.trace is not None:
                self.trace.record("prune_budget", node, new_mask, new_sos, new_os, new_bs)
            return
        low = new_os + ctx.os_tau_t_list[node]
        if low >= self.best_low:
            stats.labels_pruned_bound += 1
            if self.trace is not None:
                self.trace.record("prune_bound", node, new_mask, new_sos, new_os, new_bs)
            return
        if self.use_strategy2 and ctx.strategy2_rejects(node, new_mask, new_os, new_bs, self.best_low):
            stats.labels_pruned_strategy2 += 1
            if self.trace is not None:
                self.trace.record("prune_strategy2", node, new_mask, new_sos, new_os, new_bs)
            return

        label = Label(node, new_mask, new_sos, new_os, new_bs, parent=parent, via=via)
        if self._store.is_dominated(label):
            stats.labels_pruned_dominated += 1
            if self.trace is not None:
                self.trace.record("prune_dominated", node, new_mask, new_sos, new_os, new_bs)
            return

        if new_mask == self.full_mask and new_bs + ctx.bs_tau_t[node] <= self.delta:
            # Feasible tau-completion: a new best candidate (low < best_low
            # is guaranteed by the prune above).
            self.best_candidate, self.best_low = label, low
            self.r_hat = self.queue.bucket_index(low)
            stats.bound_updates += 1
            if self.trace is not None:
                self.trace.record("bound_update", node, new_mask, new_sos, new_os, new_bs, low)
            return

        self.queue.push(label, low)
        self._store.insert(label, self._on_evict)
        stats.labels_enqueued += 1
        if self.trace is not None:
            self.trace.record("enqueue", node, new_mask, new_sos, new_os, new_bs, low)

    def _on_evict(self, _victim: Label) -> None:
        self.stats.labels_evicted += 1

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def result(self) -> KORResult:
        """Package the finished search (callable once drained)."""
        if self._early is not None:
            return self._early
        if self.best_candidate is None:
            return self._package(None, failure_reason="no feasible route exists")
        found = self.best_candidate
        if self.trace is not None:
            self.trace.record(
                "found", found.node, found.mask, found.scaled_os, found.os, found.bs, self.best_low
            )
        return self._package(found)

    def _package(
        self, final: Label | None, failure_reason: str | None = None, trivial: bool = False
    ) -> KORResult:
        if self.queue is not None:
            self.stats.buckets_opened = self.queue.buckets_opened
        if final is None:
            self.stats.runtime_seconds = time.perf_counter() - self._start
            return KORResult(
                query=self.query,
                algorithm="bucketbound",
                route=None,
                covers_keywords=False,
                within_budget=False,
                stats=self.stats,
                failure_reason=failure_reason,
            )
        route = self.ctx.materialize(final)
        self.stats.runtime_seconds = time.perf_counter() - self._start
        return KORResult(
            query=self.query,
            algorithm="bucketbound",
            route=route,
            covers_keywords=True,
            within_budget=True if trivial else route.budget_score <= self.delta + 1e-9,
            stats=self.stats,
        )


def bucket_bound(
    graph: SpatialKeywordGraph,
    tables: CostTables,
    index: InvertedIndex,
    query: KORQuery,
    epsilon: float = 0.5,
    beta: float = 1.2,
    use_strategy1: bool = True,
    use_strategy2: bool = True,
    infrequent_threshold: float = 0.01,
    trace: SearchTrace | None = None,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KORResult:
    """Answer *query* with Algorithm 2 (approximation ratio ``beta/(1-eps)``)."""
    search = _BucketBoundSearch(
        graph,
        tables,
        index,
        query,
        epsilon=epsilon,
        beta=beta,
        use_strategy1=use_strategy1,
        use_strategy2=use_strategy2,
        infrequent_threshold=infrequent_threshold,
        trace=trace,
        binding=binding,
        deadline=deadline,
    )
    while True:
        label = search.pop()
        if label is None:
            break
        search.step(label)
    return search.result()
