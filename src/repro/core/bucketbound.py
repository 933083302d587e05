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
(Definition 4's semantics), and the Lemma-5 termination test runs at
every draw: the search stops once the lowest non-empty bucket reaches the
candidate's (the pseudocode only tests at generation time; by then its
bucket may not yet have been the lowest non-empty one, and the lemma's
precondition holds at draw time just as well).

The candidate is consumed, never queued: a label that covers every
keyword and whose tau completion fits the budget has no better completion
(Lemma 3).  Its ``L* = LOW(L)`` is the pruning bound — because ``LOW`` is
monotone along extensions, any label with ``LOW >= L*`` can neither beat
the candidate nor affect termination, so it is dropped at creation on a
single float compare, a strictly stronger prune than the per-bucket one
(anything in a bucket beyond the candidate's has ``LOW > L*``).  This
eager reading of Lemma 5 is where BucketBound's speed over OSScaling
comes from.

The loop and the label treatment are
:class:`repro.core.searchbase.LabelSearch`'s; BucketBound is that search
drawing from a :class:`BucketQueue` into an
:class:`~repro.core.searchbase.Incumbent`.
"""

from __future__ import annotations

import heapq
import math
from bisect import bisect_right
from typing import Callable

from repro.core.deadline import Deadline
from repro.core.label import Label, label_sort_key
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KORResult, SearchTrace
from repro.core.searchbase import Incumbent, LabelSearch, SearchContext
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["bucket_bound", "BucketQueue"]


class BucketQueue:
    """Labels grouped in geometric buckets, each an order-8 min-heap.

    ``bucket_index`` maps ``LOW`` values to bucket numbers relative to the
    base score ``OS(tau_{s,t})``; drawing always happens from the lowest
    non-empty bucket (Algorithm 2 line 6).  As the frontier of a
    :class:`~repro.core.searchbase.LabelSearch` it stops once that bucket
    reaches the bound's (Lemma 5).
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
        #: How many distinct buckets were materialised (for stats).
        self.buckets_opened = 0

    @classmethod
    def factory(cls, beta: float) -> Callable[[SearchContext], "BucketQueue"]:
        """Algorithm 2's frontier for one search, based at ``OS(tau_{s,t})``.

        Refuses ``beta <= 1`` before any search work, as
        :class:`~repro.core.scaling.ScalingContext` refuses ``epsilon``.
        """
        if not beta > 1.0:
            raise QueryError(f"beta must be > 1, got {beta}")

        def build(ctx: SearchContext) -> BucketQueue:
            base = float(ctx.os_tau_t_list[ctx.query.source])
            if base <= 0.0:
                # Degenerate only when source == target (OS(tau_{s,s}) = 0);
                # any positive base keeps Definition 9 well-defined, and o_min
                # is the smallest LOW any non-trivial completion can have.
                base = ctx.graph.min_objective
            return cls(base, beta)

        return build

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
        edges = self._edges
        while edges[-1] <= low:
            edges.append(edges[-1] * self._beta)
        return bisect_right(edges, low) - 1

    def push(self, label: Label, low: float) -> int:
        """File *label* under its bucket; returns the bucket number."""
        index = self.bucket_index(low)
        bucket = self._buckets.get(index)
        if bucket is None:
            bucket = []
            self._buckets[index] = bucket
            heapq.heappush(self._ids, index)
            self.buckets_opened += 1
        heapq.heappush(bucket, (label_sort_key(label), label))
        return index

    def pop(self) -> tuple[int, Label] | None:
        """Remove and return ``(bucket_number, label)`` from the lowest
        non-empty bucket, skipping labels evicted by domination; ``None``
        when everything is exhausted (Algorithm 2 line 7)."""
        index = self.peek_bucket()
        if index is None:
            return None
        return index, heapq.heappop(self._buckets[index])[1]

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

    def draw(self, bound: float) -> Label | None:
        """The next label from the lowest non-empty bucket, or ``None``.

        ``None`` is Lemma 5's termination — every bucket below the bound's
        is empty and the bound's holds a feasible route — or exhaustion.
        The bound is finite exactly when the answer set is full (one
        candidate for BucketBound, ``k`` for BucketBound-k).
        """
        frontier = self.peek_bucket()
        if frontier is None or (bound < math.inf and frontier >= self.bucket_index(bound)):
            return None
        return heapq.heappop(self._buckets[frontier])[1]

    @staticmethod
    def is_stale(low: float, bound: float) -> bool:
        """Filed before a candidate with ``L* <= low`` existed."""
        return low >= bound


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
    return LabelSearch(
        graph,
        tables,
        index,
        query,
        "bucketbound",
        BucketQueue.factory(beta),
        Incumbent(),
        epsilon=epsilon,
        use_strategy1=use_strategy1,
        use_strategy2=use_strategy2,
        infrequent_threshold=infrequent_threshold,
        trace=trace,
        binding=binding,
        deadline=deadline,
    ).run()
