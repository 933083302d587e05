"""OSScaling — the paper's first approximation algorithm (Algorithm 1).

A label-correcting search on the scaled graph ``G_S``: starting from the
source label, repeatedly dequeue the label with the lowest order
(Definition 8) and extend it along every out-edge (label treatment,
Definition 7).  New labels are pruned when

* they are dominated (on scaled objective!) by a label at the same node,
* the cheapest completion budget ``BS + BS(sigma_{j,t})`` already exceeds
  ``Delta``,
* the best completion objective ``OS + OS(tau_{j,t})`` cannot beat the
  current upper bound ``U``, or
* Optimisation Strategy 2's infrequent-keyword detour test fails.

When a new label covers the whole query and its objective-optimal
completion ``tau_{j,t}`` fits the budget, ``U`` improves and the label
(with that completion) becomes the incumbent answer; Theorem 2 guarantees
the returned route's objective is within ``1/(1-eps)`` of optimal.

With ``exact=True`` domination compares true objective scores, which turns
the search into an exact branch-and-bound (used as the ground-truth
baseline in :mod:`repro.core.bruteforce`).

The search state lives in a small class (:class:`_OSScalingSearch`) that
:func:`os_scaling` drives one label at a time: ``pop`` the lowest-order
label, ``step`` it (edges in adjacency order, then the Strategy-1 jump).
Waves (:mod:`repro.core.kernels`) run their members through this same
loop, one after another.
"""

from __future__ import annotations

import heapq
import time

from repro.core.deadline import Deadline
from repro.core.label import VIA_JUMP, Label, LabelStore, label_sort_key
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KORResult, SearchStats, SearchTrace
from repro.core.route import Route
from repro.core.scaling import ScalingContext
from repro.core.searchbase import SearchContext
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["os_scaling"]


class _OSScalingSearch:
    """One OSScaling run, advanced label by label.

    The driver calls :meth:`pop` for the next label to expand (``None``
    once the search is complete — including the trivial early exits,
    which are resolved during construction) and :meth:`step` to extend
    it, then :meth:`result` for the :class:`KORResult`.
    """

    algorithm_family = "osscaling"

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        tables: CostTables,
        index: InvertedIndex,
        query: KORQuery,
        epsilon: float = 0.5,
        use_strategy1: bool = True,
        use_strategy2: bool = True,
        infrequent_threshold: float = 0.01,
        exact: bool = False,
        trace: SearchTrace | None = None,
        binding: QueryBinding | None = None,
        deadline: Deadline | None = None,
    ) -> None:
        self._start = time.perf_counter()
        self.algorithm = "exact" if exact else "osscaling"
        self.stats = SearchStats()
        self.query = query
        self.trace = trace
        self.deadline = deadline
        self.use_strategy1 = use_strategy1
        self.use_strategy2 = use_strategy2

        scaling = ScalingContext.for_query(graph, query.budget_limit, epsilon, exact=exact)
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

        self.upper = float("inf")
        self.incumbent: Label | None = None
        self._early: KORResult | None = None
        self._heap: list[tuple[tuple[int, float, float, int], Label]] = []
        self._store = LabelStore(graph.num_nodes)

        reason = ctx.impossibility_reason()
        if reason is not None:
            self._early = self._package(None, failure_reason=reason)
            return

        source = query.source
        root = ctx.root_label()
        if root.mask == self.full_mask and ctx.bs_tau_t_list[source] <= self.delta:
            # The source (plus the target, via tau's endpoints) already
            # covers every keyword and the objective-optimal completion
            # fits the budget: tau_{s,t} is globally objective-optimal, so
            # it is *the* optimum — no search needed.
            self._early = self._package(root)
            return

        heapq.heappush(self._heap, (label_sort_key(root), root))
        self._store.insert(root)
        self.stats.labels_enqueued += 1

    # ------------------------------------------------------------------
    # driver protocol
    # ------------------------------------------------------------------
    def pop(self) -> Label | None:
        """Next label to expand (Algorithm 1 lines 5-7), or ``None``.

        Dead labels (evicted by domination) and stale labels (admissible
        completion no longer under ``U``) are skipped here; the deadline
        ticks once per heap pop.
        """
        if self._early is not None:
            return None
        while self._heap:
            if self.deadline is not None:
                self.deadline.tick()
            _key, label = heapq.heappop(self._heap)
            if not label.alive:
                continue
            self.stats.loops += 1
            if self.trace is not None:
                self.trace.record(
                    "dequeue", label.node, label.mask, label.scaled_os, label.os, label.bs
                )
            # Line 7: the label cannot contribute once its admissible
            # completion exceeds the upper bound.
            if label.os + self.ctx.os_tau_t_list[label.node] > self.upper:
                continue
            return label
        return None

    def step(self, label: Label) -> None:
        """Treat one dequeued label: its out-edges in order, then the jump."""
        self.ctx.expand(
            label, self.upper, self.stats, self.consider, per_edge=self.trace is not None
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
    # label treatment (Definition 7 + Algorithm 1 line 10 checks)
    # ------------------------------------------------------------------
    def consider(
        self, parent: Label, node: int, seg_os: float, seg_bs: float, seg_sos: float, via: int
    ) -> None:
        """Label treatment of one candidate extension, all checks inline."""
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
        if not (new_os + ctx.os_tau_t_list[node] < self.upper):
            stats.labels_pruned_bound += 1
            if self.trace is not None:
                self.trace.record("prune_bound", node, new_mask, new_sos, new_os, new_bs)
            return
        if self.use_strategy2 and ctx.strategy2_rejects(node, new_mask, new_os, new_bs, self.upper):
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

        if new_mask == self.full_mask:
            if new_bs + ctx.bs_tau_t_list[node] <= self.delta:
                # Feasible completion via tau_{j,t}: update the upper bound
                # and the incumbent (lines 17-19); the label is consumed —
                # tau is its best possible completion (Lemma 3), so no
                # extension of it can improve on the recorded route.
                self.upper = new_os + ctx.os_tau_t_list[node]
                self.incumbent = label
                stats.bound_updates += 1
                if self.trace is not None:
                    self.trace.record(
                        "bound_update", node, new_mask, new_sos, new_os, new_bs, self.upper
                    )
                return
            # Covers everything but tau's budget does not fit: keep
            # searching from it (line 20).
        heapq.heappush(self._heap, (label_sort_key(label), label))
        self._store.insert(label, self._on_evict)
        stats.labels_enqueued += 1
        if self.trace is not None:
            self.trace.record("enqueue", node, new_mask, new_sos, new_os, new_bs)

    def _on_evict(self, _victim: Label) -> None:
        self.stats.labels_evicted += 1

    # ------------------------------------------------------------------
    # result
    # ------------------------------------------------------------------
    def result(self) -> KORResult:
        """Package the finished search (callable once drained)."""
        if self._early is not None:
            return self._early
        if self.incumbent is None:
            return self._package(None, failure_reason="no feasible route exists")
        return self._package(self.incumbent)

    def _package(self, final: Label | None, failure_reason: str | None = None) -> KORResult:
        if final is None:
            self.stats.runtime_seconds = time.perf_counter() - self._start
            return KORResult(
                query=self.query,
                algorithm=self.algorithm,
                route=None,
                covers_keywords=False,
                within_budget=False,
                stats=self.stats,
                failure_reason=failure_reason,
            )
        route = _finish(self.ctx, final)
        self.stats.runtime_seconds = time.perf_counter() - self._start
        return KORResult(
            query=self.query,
            algorithm=self.algorithm,
            route=route,
            covers_keywords=True,
            within_budget=route.budget_score <= self.delta + 1e-9,
            stats=self.stats,
        )


def os_scaling(
    graph: SpatialKeywordGraph,
    tables: CostTables,
    index: InvertedIndex,
    query: KORQuery,
    epsilon: float = 0.5,
    use_strategy1: bool = True,
    use_strategy2: bool = True,
    infrequent_threshold: float = 0.01,
    exact: bool = False,
    trace: SearchTrace | None = None,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KORResult:
    """Answer *query* with Algorithm 1.

    Parameters mirror the paper: ``epsilon`` trades accuracy for speed
    (Theorem 2 bound ``1/(1-eps)``); the two optimisation strategies can
    be toggled for ablations.  ``trace`` collects per-label events for the
    worked-example tests.  ``binding`` optionally reuses a pre-built
    query context (see :class:`repro.core.query.QueryBinding`).
    ``deadline`` arms the per-iteration cancellation checkpoint.
    """
    search = _OSScalingSearch(
        graph,
        tables,
        index,
        query,
        epsilon=epsilon,
        use_strategy1=use_strategy1,
        use_strategy2=use_strategy2,
        infrequent_threshold=infrequent_threshold,
        exact=exact,
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


def _finish(ctx: SearchContext, incumbent: Label) -> Route:
    """Materialise the incumbent's route (label chain + tau completion)."""
    return ctx.materialize(incumbent)
