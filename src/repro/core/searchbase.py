"""Shared machinery of the label-correcting searches.

OSScaling (Algorithm 1), BucketBound (Algorithm 2) and their top-k
variants all share: query binding, per-query scaled edge weights, the two
optimisation strategies of Section 3.2, and route materialisation from a
label chain plus a ``tau`` completion.  :class:`SearchContext` packages
that state so each algorithm module only contains its control flow.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from repro.core.label import VIA_EDGE, VIA_JUMP, VIA_ROOT, Label
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import SearchStats
from repro.core.route import Route
from repro.core.scaling import ScalingContext
from repro.exceptions import PrepError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["SearchContext", "SCREEN_MIN_DEGREE"]

#: Out-degree from which :meth:`SearchContext.expand` evaluates the two
#: early prunes for a popped node's whole out-edge block in one numpy pass
#: instead of one ``consider`` call per edge.  The pass costs ~4 us flat;
#: the loop costs ~0.25-0.45 us per edge that dies on a compare.  Measured
#: on a hub of d out-edges under OSScaling (one step, best of 5 x 3000):
#: with 90 % of the edges dying early — the share on the Flickr-style
#: benchmark streams, ~40-50 candidates per pop — the pass wins from
#: d = 24 (8.2 -> 6.0 us; 17.1 -> 11.1 us at d = 64) and loses below
#: (d = 16: 5.0 -> 7.8 us); with 27 % dying (road-1000, max out-degree 6)
#: it loses at every d <= 64.  Replaying the ``search_cold`` stream with
#: the constant swept 4..32 reads 231-241 ms per pass throughout (378 ms
#: with the pass off; 254 ms at 48), so the hub break-even sets it.
SCREEN_MIN_DEGREE = 24


class SearchContext:
    """Per-query state shared by the label-correcting algorithms."""

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        tables: CostTables,
        index: InvertedIndex,
        query: KORQuery,
        scaling: ScalingContext,
        infrequent_threshold: float = 0.01,
        binding: QueryBinding | None = None,
    ) -> None:
        self.graph = graph
        self.tables = tables
        self.index = index
        self.query = query
        self.scaling = scaling
        # A pre-built binding (the serving layer's reusable query context)
        # skips the per-query index lookups; it must describe this query.
        self.binding = (
            binding if binding is not None else QueryBinding.bind(graph, index, query)
        )
        self.delta = query.budget_limit

        target = query.target
        #: OS(tau_{i,t}) for every i — the admissible completion bound
        #: behind Lemma 3's LOW(.) and the U-pruning of Algorithm 1.
        self.os_tau_t = tables.os_tau_col(target)
        #: BS(tau_{i,t}) — budget of the objective-optimal completion.
        self.bs_tau_t = tables.bs_tau_col(target)
        #: BS(sigma_{i,t}) — the cheapest possible completion budget; a
        #: label violating ``BS + BS(sigma) <= Delta`` can never be feasible.
        self.bs_sigma_t = tables.bs_sigma_col(target)
        # Plain-list twins of the columns above: scalar indexing of numpy
        # arrays costs ~10x a list lookup, and label creation is the hot
        # path (hundreds of thousands of lookups per query).
        self.os_tau_t_list: list[float] = self.os_tau_t.tolist()
        self.bs_tau_t_list: list[float] = self.bs_tau_t.tolist()
        self.bs_sigma_t_list: list[float] = self.bs_sigma_t.tolist()

        # Lazy caches ---------------------------------------------------
        self._scaled_out: dict[int, tuple[tuple[int, float, float, float], ...]] = {}
        #: node -> its out-edge block for :meth:`expand`: (objectives,
        #: budgets, OS(tau_{j,t}), BS(sigma_{j,t})) over its out-edges j,
        #: gathered the first time the query pops a wide node.
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        #: missing mask -> (uncovered keyword nodes, sigma-row reader at
        #: them, BS(sigma_{j,t}) at them).
        self._uncovered_union: dict[int, tuple[np.ndarray, object, np.ndarray]] = {}
        #: (node, missing mask) -> (nearest uncovered keyword node vj,
        #: OS(sigma_{node,vj}), BS(sigma_{node,vj}), BS(sigma_{vj,t})).
        self._nearest: dict[tuple[int, int], tuple[int, float, float, float]] = {}

        # Optimisation Strategy 2 state ----------------------------------
        self._rare_bit: int | None = None
        self._rare_os_rows = None
        self._rare_bs_rows = None
        self._rare_os_to_t: np.ndarray | None = None
        self._rare_bs_to_t: np.ndarray | None = None
        self._rare_min_bs: list[float] | None = None
        self._rare_min_os: list[float] | None = None
        self._prepare_strategy2(infrequent_threshold)

    # ------------------------------------------------------------------
    # feasibility screens run before any search loop
    # ------------------------------------------------------------------
    def impossibility_reason(self) -> str | None:
        """A human-readable reason the query is trivially infeasible, or None.

        Checks vocabulary coverage, target reachability and the cheapest
        conceivable budget ``BS(sigma_{s,t})``.
        """
        missing = self.binding.missing_keywords
        if missing:
            return f"keywords not present in the graph: {', '.join(sorted(missing))}"
        source = self.query.source
        if not np.isfinite(self.os_tau_t[source]):
            return "target is unreachable from source"
        if self.bs_sigma_t[source] > self.delta:
            return (
                f"cheapest route budget {self.bs_sigma_t[source]:.4g} "
                f"exceeds the limit {self.delta:.4g}"
            )
        return None

    def root_label(self) -> Label:
        """The initial label at the source (Algorithm 1 line 3)."""
        source = self.query.source
        return Label(
            node=source,
            mask=self.binding.node_mask(source),
            scaled_os=0.0,
            os=0.0,
            bs=0.0,
            parent=None,
            via=VIA_ROOT,
        )

    # ------------------------------------------------------------------
    # scaled adjacency
    # ------------------------------------------------------------------
    def scaled_out(self, u: int) -> tuple[tuple[int, float, float, float], ...]:
        """Out-edges of *u* as ``(v, objective, budget, scaled_objective)``.

        Computed lazily per node: most queries touch a small fraction of
        the graph, so scaling the whole edge set up front would dominate
        the fast algorithms' runtime.
        """
        cached = self._scaled_out.get(u)
        if cached is None:
            scale = self.scaling.scale
            cached = tuple(
                (v, obj, bud, scale(obj)) for v, obj, bud in self.graph.out_edges(u)
            )
            self._scaled_out[u] = cached
        return cached

    def expand(
        self,
        label: Label,
        bound: float,
        stats: SearchStats,
        consider: Callable[[Label, int, float, float, float, int], None],
        per_edge: bool = False,
    ) -> None:
        """Label treatment of *label*'s out-edges, in adjacency order.

        Calls ``consider(label, v, objective, budget, scaled_objective,
        VIA_EDGE)`` for the out-edges that can still matter.  Below
        :data:`SCREEN_MIN_DEGREE` (and with ``per_edge``, which a traced
        search sets: its trace *is* the per-candidate event list) that is
        every edge.  A wider block is screened first in one masked pass:
        an edge whose cheapest completion busts the budget, or whose
        admissible completion ``OS + OS(tau_{j,t})`` does not beat *bound*,
        is counted in *stats* exactly as ``consider`` would have counted
        it and never reaches it.

        This is exact.  The budget test has no moving part and keeps the
        scalar association ``(parent.bs + seg_bs) + BS(sigma)``.  *bound*
        is the caller's pruning bound at the start of the step and only
        tightens while the step runs, so an edge it kills is one
        ``consider`` would have killed at its turn — under the same
        counter, because the budget test runs first in both.  Survivors
        are re-checked by ``consider`` against the live bound.
        """
        node = label.node
        out = self.graph.out_edges(node)
        if per_edge or len(out) < SCREEN_MIN_DEGREE:
            for head, seg_os, seg_bs, seg_sos in self.scaled_out(node):
                consider(label, head, seg_os, seg_bs, seg_sos, VIA_EDGE)
            return
        block = self._blocks.get(node)
        if block is None:
            indptr, indices, objectives, budgets = self.graph.to_csr()
            lo, hi = int(indptr[node]), int(indptr[node + 1])
            heads = indices[lo:hi]
            block = (
                objectives[lo:hi],
                budgets[lo:hi],
                self.os_tau_t[heads],
                self.bs_sigma_t[heads],
            )
            self._blocks[node] = block
        objectives, budgets, os_tau, bs_sigma = block
        fits = (label.bs + budgets) + bs_sigma <= self.delta
        keep = fits & ((label.os + objectives) + os_tau < bound)
        survivors = keep.nonzero()[0].tolist()
        fitting = int(np.count_nonzero(fits))
        stats.labels_created += len(out) - len(survivors)
        stats.labels_pruned_budget += len(out) - fitting
        stats.labels_pruned_bound += fitting - len(survivors)
        scale = self.scaling.scale
        for position in survivors:
            head, seg_os, seg_bs = out[position]
            consider(label, head, seg_os, seg_bs, scale(seg_os), VIA_EDGE)

    # ------------------------------------------------------------------
    # Optimisation Strategy 1: jump labels
    # ------------------------------------------------------------------
    def jump_candidate(self, label: Label) -> tuple[int, float, float] | None:
        """Strategy 1's extra label target for *label*, or ``None``.

        Returns ``(vj, OS(sigma_{i,j}), BS(sigma_{i,j}))`` for the node vj
        that carries an uncovered query keyword, minimises
        ``BS(sigma_{i,j})``, and still admits a feasible completion:
        ``label.BS + BS(sigma_{i,j}) + BS(sigma_{j,t}) <= Delta``.
        """
        missing = self.binding.full_mask & ~label.mask
        if not missing:
            return None
        # The nearest candidate regardless of budget depends on (node,
        # missing) alone.  When it is feasible for this label it *is* the
        # masked argmin below (the first index of the overall minimum),
        # and the scalar test associates exactly as the vector one does.
        key = (label.node, missing)
        nearest = self._nearest.get(key)
        if nearest is not None and (label.bs + nearest[2]) + nearest[3] <= self.delta:
            return nearest[:3]
        nodes, sigma_rows, bs_to_t = self._uncovered(missing)
        if len(nodes) == 0:
            return None
        seg_bs = sigma_rows.primary(label.node)
        if nearest is None:
            first = int(seg_bs.argmin())
            first_bs, first_to_t = float(seg_bs[first]), float(bs_to_t[first])
            if (label.bs + first_bs) + first_to_t <= self.delta:
                found = (int(nodes[first]), sigma_rows.secondary_at(label.node, first), first_bs)
                if len(self._nearest) >= self.MAX_JUMP_MEMO:
                    self._nearest.pop(next(iter(self._nearest)))
                self._nearest[key] = found + (first_to_t,)
                return found
        feasible = (label.bs + seg_bs + bs_to_t) <= self.delta
        if not feasible.any():
            return None
        best = int(np.where(feasible, seg_bs, np.inf).argmin())
        seg_os = sigma_rows.secondary_at(label.node, best)
        return int(nodes[best]), seg_os, float(seg_bs[best])

    #: Cap on memoised nearest jump candidates per search context, evicted
    #: oldest first like the unions below: a long search over a large graph
    #: meets up to ``n * (2^|kw| - 1)`` distinct ``(node, missing)`` pairs.
    MAX_JUMP_MEMO = 4096

    #: Cap on memoised uncovered-node unions (and the row readers kept
    #: beside them) per search context.  A query with |kw| keywords has
    #: up to ``2^|kw| - 1`` distinct missing masks; without a bound an
    #: adversarial many-keyword query could pin that many live arrays
    #: for the lifetime of the search.
    MAX_UNCOVERED_MEMO = 64

    def _uncovered(self, missing_mask: int) -> tuple[np.ndarray, object, np.ndarray]:
        """Nodes carrying a missing keyword, the sigma rows at them and
        their ``BS(sigma_{j,t})``."""
        cached = self._uncovered_union.get(missing_mask)
        if cached is None:
            lists = [
                postings
                for bit, postings in enumerate(self.binding.nodes_with_bit)
                if missing_mask & (1 << bit) and len(postings)
            ]
            nodes = (
                np.unique(np.concatenate(lists)) if lists else np.empty(0, dtype=np.int64)
            )
            cached = (nodes, self.tables.row_reader(nodes, "sigma"), self.bs_sigma_t[nodes])
            if len(self._uncovered_union) >= self.MAX_UNCOVERED_MEMO:
                self._uncovered_union.pop(next(iter(self._uncovered_union)), None)
            self._uncovered_union[missing_mask] = cached
        return cached

    # ------------------------------------------------------------------
    # Optimisation Strategy 2: infrequent-keyword pruning
    # ------------------------------------------------------------------
    def _prepare_strategy2(self, threshold: float) -> None:
        vocabulary = self.index.vocabulary
        rare_bit: int | None = None
        rare_df = None
        for bit, kid in enumerate(self.binding.keyword_ids):
            if kid is None:
                continue
            df = vocabulary.document_frequency(kid)
            if df == 0 or not vocabulary.is_infrequent(kid, threshold):
                continue
            if rare_df is None or df < rare_df:
                rare_bit, rare_df = bit, df
        if rare_bit is None:
            return
        nodes = self.binding.nodes_with_bit[rare_bit]
        self._rare_bit = rare_bit
        self._rare_os_rows = self.tables.row_reader(nodes, "tau")
        self._rare_bs_rows = self.tables.row_reader(nodes, "sigma")
        self._rare_os_to_t = self.os_tau_t[nodes]
        self._rare_bs_to_t = self.bs_sigma_t[nodes]

        # Scalar screens, one vectorised pass per query: the cheapest
        # budget (resp. objective) of any detour through a rare node from
        # each graph node.  If even the cheapest detour violates a
        # constraint, the label dies on a float compare instead of a numpy
        # reduction — that per-label reduction dominated BucketBound's
        # runtime before this cache existed.
        bs_via = self.tables.bs_sigma_cols(nodes) + self._rare_bs_to_t[None, :]
        os_via = self.tables.os_tau_cols(nodes) + self._rare_os_to_t[None, :]
        self._rare_min_bs = bs_via.min(axis=1).tolist()
        self._rare_min_os = os_via.min(axis=1).tolist()

    @property
    def strategy2_active(self) -> bool:
        """Whether an infrequent query keyword was found."""
        return self._rare_bit is not None

    def strategy2_rejects(self, node: int, mask: int, os: float, bs: float, upper: float) -> bool:
        """Strategy 2's discard test for a freshly created label.

        The label (at *node*, not yet covering the rare keyword) survives
        only if some rare-keyword node ``l`` admits a detour that stays
        within both the objective upper bound and the budget:
        ``os + OS(tau_{node,l}) + OS(tau_{l,t}) <= upper`` and
        ``bs + BS(sigma_{node,l}) + BS(sigma_{l,t}) <= Delta``.

        Runs in three stages: two sound scalar screens (cheapest detour
        budget / objective over all rare nodes), then the exact joint test
        only when an upper bound exists to make it worthwhile.
        """
        if self._rare_bit is None or mask & (1 << self._rare_bit):
            return False
        if bs + self._rare_min_bs[node] > self.delta:
            return True
        if upper == math.inf:
            # Without an objective bound the joint test degenerates to the
            # budget screen above, which already passed.
            return False
        if os + self._rare_min_os[node] > upper:
            return True
        os_via = os + self._rare_os_rows.primary(node) + self._rare_os_to_t
        bs_via = bs + self._rare_bs_rows.primary(node) + self._rare_bs_to_t
        keeps = (os_via <= upper) & (bs_via <= self.delta)
        return not bool(keeps.any())

    # ------------------------------------------------------------------
    # route materialisation
    # ------------------------------------------------------------------
    def materialize(self, label: Label) -> Route:
        """Expand a final label into the full route it represents.

        The route is the label's chain (jump labels expand to their
        ``sigma`` path) followed by the objective-optimal completion
        ``tau_{label.node, target}`` (Algorithm 1 line 22 / Lemma 3).
        """
        nodes: list[int] = []
        prev: int | None = None
        for node, via in label.chain_nodes():
            if via == VIA_ROOT:
                nodes.append(node)
            elif via == VIA_EDGE:
                nodes.append(node)
            elif via == VIA_JUMP:
                assert prev is not None
                nodes.extend(self.tables.sigma_path(prev, node)[1:])
            else:  # pragma: no cover - defensive
                raise PrepError(f"unknown label provenance: {via}")
            prev = node
        assert prev is not None
        completion = self.tables.tau_path(prev, self.query.target)
        nodes.extend(completion[1:])
        return Route.from_nodes(self.graph, nodes)
