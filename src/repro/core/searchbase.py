"""The label-correcting search and its shared machinery.

OSScaling (Algorithm 1), BucketBound (Algorithm 2) and their top-k
variants (Section 3.5) are one search: the label treatment of
Definitions 7-8 (budget test, bound test, Strategy 2, domination, the
Strategy-1 jump) applied to labels drawn from a *frontier* and offered
to an *answer set*.  The frontier picks the algorithm — :class:`LabelHeap`
is Algorithm 1's heap, :class:`repro.core.bucketbound.BucketQueue`
Algorithm 2's geometric buckets with the Lemma-5 stop — and the answer
set picks top-1 (:class:`Incumbent`) or KkR
(:class:`repro.core.topk.TopKCollector`).  :class:`LabelSearch` runs the
one loop; :class:`SearchContext` holds the per-query state the treatment
reads: the query binding, scaled edge weights, the two optimisation
strategies of Section 3.2, and route materialisation from a label chain
plus a ``tau`` completion.
"""

from __future__ import annotations

import heapq
import math
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from repro.core.deadline import Deadline
from repro.core.label import VIA_EDGE, VIA_JUMP, VIA_ROOT, Label, LabelStore, label_sort_key
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KkRResult, KORResult, SearchStats, SearchTrace
from repro.core.route import Route
from repro.core.scaling import ScalingContext
from repro.exceptions import PrepError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

if TYPE_CHECKING:
    from repro.core.bucketbound import BucketQueue
    from repro.core.topk import TopKCollector

__all__ = [
    "FLOOR_MIN_DEGREE",
    "Incumbent",
    "LabelHeap",
    "LabelSearch",
    "SearchContext",
    "SCREEN_MIN_DEGREE",
]

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

#: Out-degree from which a label at a node is tested against the node's
#: keyword floor (:meth:`SearchContext.floor_rejects`).  A node's floor is
#: one row read per half over the keyword nodes the source misses (~115 on
#: the ``search_cold`` stream): ~3 us on flat tables, ~130 us on two-cell
#: partitioned ones, which assemble the cross-cell legs.  It pays only
#: through the labels it drops, so the gate is an out-degree, set from the
#: served workloads.  Replaying the flat ``search_cold`` stream's 170 label
#: searches in process (interleaved, best of 8 per query) with the gate
#: swept, BucketBound / OSScaling ms: off 82 / 103; 0 52 / 46; 8 52 / 46;
#: 16 54 / 49; 24 57 / 55; 40 67 / 71.  8 is the smallest gate above road
#: graphs' out-degree (at most 6), so the road-1000 world builds no floor.
FLOOR_MIN_DEGREE = 8

#: Relative slack of every budget compare of a label search: a budget
#: fits when it is at most ``SearchContext.limit = Delta * (1 +
#: _PROOF_SLACK)``.  The keyword-order proof
#: (:meth:`SearchContext.impossibility_reason`) sums sigma legs left to
#: right, ``((BS(sigma_{s,l1}) + BS(sigma_{l1,l2})) + ...) +
#: BS(sigma_{lm,t})``, a label sums jump legs and edges in label order and
#: a route sums its own edges one by one; they associate differently, so a
#: route whose budget is exactly Delta can read a few ulps above it in one
#: and at it in another.  1e-9 is far above that rounding (~1e-16 per add
#: over any realistic route length) and far below any genuine gap between
#: a budget limit and a route.  Partitioned tables assemble
#: ``BS(sigma_{s,t})`` from border legs, so it too can read an ulp above
#: the same path summed edge by edge.
_PROOF_SLACK = 1e-9


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
        self.binding = binding if binding is not None else QueryBinding.bind(graph, index, query)
        self.delta = query.budget_limit
        #: The budget every compare of the search reads: ``Delta * (1 +
        #: _PROOF_SLACK)``, so a route whose budget is exactly Delta is not
        #: lost to its labels' sums associating differently from its own.
        self.limit = self.delta * (1.0 + _PROOF_SLACK)

        target = query.target
        #: OS(tau_{i,t}) for every i — the admissible completion bound
        #: behind Lemma 3's LOW(.) and the U-pruning of Algorithm 1.
        self.os_tau_t = np.ascontiguousarray(tables.os_tau_col(target))
        #: BS(sigma_{i,t}) — the cheapest possible completion budget; a
        #: label violating ``BS + BS(sigma) <= Delta`` can never be feasible.
        self.bs_sigma_t = np.ascontiguousarray(tables.bs_sigma_col(target))
        # Every created label reads one entry of each column, through a
        # memoryview indexed like a list: it returns the same Python float
        # as a list read and needs no per-query conversion.  Timed in a
        # loop on one pinned CPU, a read costs 27-39 ns against 11-19 ns
        # from a list (52 ns from the array, which yields numpy scalars),
        # while the ``tolist`` a list needs costs 7-8 us for 396-610 floats
        # and a short served search reads each column only ~40-150 times.
        # On flat tables the contiguous copy above is one strided copy
        # (~0.6 us); a partitioned table's assembled column is contiguous
        # already and is not copied.
        self.os_tau_t_list: memoryview = memoryview(self.os_tau_t)
        self.bs_sigma_t_list: memoryview = memoryview(self.bs_sigma_t)
        #: BS(tau_{i,t}) — budget of the objective-optimal completion, read
        #: per node (``bs_tau_t[i]``) and only for labels covering every
        #: keyword, so no table assembles or copies the whole column.
        self.bs_tau_t = tables.bs_tau_entries(target)

        # Lazy caches ---------------------------------------------------
        self._scaled_out: dict[int, tuple[tuple[int, float, float, float], ...]] = {}
        #: node -> its out-edge block for :meth:`expand`: (objectives,
        #: budgets, OS(tau_{j,t}), BS(sigma_{j,t})) over its out-edges j,
        #: gathered the first time the query pops a wide node.
        self._blocks: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]] = {}
        #: The keyword bits the source misses: every label holds the rest.
        self._open = self.binding.full_mask & ~self.binding.node_mask(query.source)
        #: The query's keyword-node set (see :meth:`_keyword_nodes`).
        self._keyword_set: tuple[np.ndarray, object, np.ndarray, np.ndarray] | None = None
        #: (node, missing mask) -> (nearest uncovered keyword node vj,
        #: OS(sigma_{node,vj}), BS(sigma_{node,vj}), BS(sigma_{vj,t})).
        self._nearest: dict[tuple[int, int], tuple[int, float, float, float]] = {}
        #: node -> [budget floor per keyword bit, objective floor per bit or
        #: None until a bound exists], or ``()`` below :data:`FLOOR_MIN_DEGREE`.
        self._floors: dict[int, list | tuple] = {}
        #: The floor's keyword bits (those the source misses), the positions
        #: in the keyword-node set carrying each, bit after bit, and where
        #: each bit's positions start.
        self._floor_segments: tuple[list[int], np.ndarray, np.ndarray] | None = None
        #: The tau-row reader over that set and OS(tau_{l,t}) at it.
        self._floor_tau: tuple[object, np.ndarray] | None = None
        #: missing mask -> its bit positions.
        self._mask_bits: dict[int, list[int]] = {}

        # Optimisation Strategy 2 state ----------------------------------
        self._rare_bit: int | None = None
        self._rare_os_rows = None
        self._rare_bs_rows = None
        self._rare_os_to_t: np.ndarray | None = None
        self._rare_bs_to_t: np.ndarray | None = None
        self._rare_min_bs: memoryview | None = None
        self._rare_min_os: memoryview | None = None
        self._prepare_strategy2(infrequent_threshold)

    # ------------------------------------------------------------------
    # feasibility screens run before any search loop
    # ------------------------------------------------------------------
    def impossibility_reason(self, deadline: Deadline | None = None) -> str | None:
        """A human-readable reason the query is infeasible, or None.

        Checks vocabulary coverage, target reachability, the cheapest
        conceivable budget ``BS(sigma_{s,t})`` and last the cheapest budget
        of any route that covers the keywords
        (:meth:`_keyword_orders_bust_budget`), whose proof answers "no
        feasible route exists" before a search pops a label.  *deadline*
        ticks once per state of that proof's subset DP.
        """
        missing = self.binding.missing_keywords
        if missing:
            return f"keywords not present in the graph: {', '.join(sorted(missing))}"
        source = self.query.source
        if not np.isfinite(self.os_tau_t[source]):
            return "target is unreachable from source"
        if self.bs_sigma_t[source] > self.limit:
            return (
                f"cheapest route budget {self.bs_sigma_t[source]:.4g} "
                f"exceeds the limit {self.delta:.4g}"
            )
        if self._keyword_orders_bust_budget(deadline):
            return "no feasible route exists"
        return None

    def _keyword_orders_bust_budget(self, deadline: Deadline | None) -> bool:
        """Whether every route covering the query provably busts Delta.

        A route a search returns visits, for each keyword neither endpoint
        carries, some node carrying it, and between consecutive such nodes
        it pays at least the sigma leg's budget.  Its budget is therefore
        at least ``BS(sigma_{s,l1}) + BS(sigma_{l1,l2}) + ... +
        BS(sigma_{lm,t})`` minimised over every visiting order and every
        choice of nodes — the minimum-budget sequenced route, taken over
        all orders.  When that bound exceeds Delta by more than
        :data:`_PROOF_SLACK` no route is feasible.  Three stages, cheapest
        first, all over the query's keyword-node set (:meth:`_keyword_nodes`),
        which the Strategy-1 jump reads too:

        1. a witness, the nearest-uncovered chain (the root's jump,
           repeated).  It is one of the sequences the bound minimises over,
           so when it fits the bound does, and the search runs as before;
        2. a filter: keyword node ``l`` stays only if ``BS(sigma_{s,l}) +
           BS(sigma_{l,t})`` fits;
        3. an exact subset DP ``f[S][l]`` over the nodes kept, one state per
           covered mask ``S`` in increasing order (a step only adds bits,
           so a state is final when popped).  A state whose cheapest
           completion busts the budget is dropped; the first state that
           covers every keyword means the bound fits.
        """
        binding = self.binding
        source = self.query.source
        need = self._open & ~binding.node_mask(self.query.target)
        if not need:
            return False  # the bound is BS(sigma_{s,t}), screened already
        nodes, rows, bs_to_t, bits = self._keyword_nodes()
        limit = self.limit

        # 1. The witness.  Every step covers a needed bit or stops.
        node, covered, spent = source, 0, 0.0
        while covered != need:
            row = np.where((bits & (need & ~covered)) != 0, rows.primary(node), np.inf)
            position = int(row.argmin())
            spent += float(row[position])
            if not spent + float(bs_to_t[position]) <= limit:
                break  # also when no open keyword node is reachable (inf)
            node, covered = int(nodes[position]), covered | (int(bits[position]) & need)
        else:
            return False

        # 2. The filter.
        first = rows.primary(source)
        keep = np.flatnonzero(((bits & need) != 0) & (first + bs_to_t <= limit))
        bits, bs_to_t = bits[keep] & need, bs_to_t[keep]
        reach = 0
        for carried in bits.tolist():
            reach |= carried
        if reach != need:
            return True  # some keyword has no node within budget

        # 3. The subset DP; ``arrive`` is the cheapest budget into each
        # kept node from the state just popped.
        legs: dict[int, np.ndarray] = {}  # kept position -> its row at the kept nodes
        states: dict[int, np.ndarray] = {}
        pending: list[int] = []
        covered, arrive = 0, first[keep]
        while True:
            masks = bits | covered
            fresh = (masks != covered) & (arrive + bs_to_t <= limit)
            for mask in np.unique(masks[fresh]).tolist():
                if mask == need:
                    return False
                best = states.get(mask)
                if best is None:
                    best = states[mask] = np.full(len(keep), np.inf)
                    heapq.heappush(pending, mask)
                np.minimum(best, np.where(fresh & (masks == mask), arrive, np.inf), out=best)
            if not pending:
                return True
            if deadline is not None:
                deadline.tick()
            covered = heapq.heappop(pending)
            best = states.pop(covered)
            live = np.flatnonzero(best < np.inf).tolist()
            for position in live:
                if position not in legs:
                    legs[position] = rows.primary(int(nodes[keep[position]]))[keep]
            arrive = (best[live, None] + np.array([legs[at] for at in live])).min(axis=0)

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
            cached = tuple((v, obj, bud, scale(obj)) for v, obj, bud in self.graph.out_edges(u))
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
        fits = (label.bs + budgets) + bs_sigma <= self.limit
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
        ``label.BS + BS(sigma_{i,j}) + BS(sigma_{j,t}) <= Delta``.  *label*
        holds the source's keyword bits, as every label a search builds
        does, so its candidates are among the query's keyword-node set.
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
        if nearest is not None and (label.bs + nearest[2]) + nearest[3] <= self.limit:
            return nearest[:3]
        nodes, sigma_rows, bs_to_t, bits = self._keyword_nodes()
        if len(nodes) == 0:
            return None
        seg_bs = sigma_rows.primary(label.node)
        if missing != self._open:
            # A node carrying none of the label's missing bits is no candidate.
            seg_bs = np.where((bits & missing) != 0, seg_bs, np.inf)
        if nearest is None:
            first = int(seg_bs.argmin())
            first_bs, first_to_t = float(seg_bs[first]), float(bs_to_t[first])
            if (label.bs + first_bs) + first_to_t <= self.limit:
                found = (int(nodes[first]), sigma_rows.secondary_at(label.node, first), first_bs)
                if len(self._nearest) >= self.MAX_JUMP_MEMO:
                    self._nearest.pop(next(iter(self._nearest)))
                self._nearest[key] = found + (first_to_t,)
                return found
        feasible = (label.bs + seg_bs + bs_to_t) <= self.limit
        if not feasible.any():
            return None
        best = int(np.where(feasible, seg_bs, np.inf).argmin())
        seg_os = sigma_rows.secondary_at(label.node, best)
        return int(nodes[best]), seg_os, float(seg_bs[best])

    #: Cap on memoised nearest jump candidates per search context, evicted
    #: oldest first: a long search over a large graph meets up to
    #: ``n * (2^|kw| - 1)`` distinct ``(node, missing)`` pairs.
    MAX_JUMP_MEMO = 4096

    def _keyword_nodes(self) -> tuple[np.ndarray, object, np.ndarray, np.ndarray]:
        """The query's one keyword-node set: the nodes carrying a keyword
        the source misses, the sigma rows at them, their ``BS(sigma_{j,t})``
        and the missing keyword bits each carries.  Every label holds the
        source's bits, so the nodes carrying what a label misses are a
        subset, in the same order; built on first need, kept for the query."""
        if self._keyword_set is None:
            # The binding's dense per-node masks, cut to the open bits, give
            # the sorted node set and each node's bits in one pass.
            carried = self.binding.masks & self._open
            nodes = np.flatnonzero(carried)
            reader = self.tables.row_reader(nodes, "sigma")
            self._keyword_set = (nodes, reader, self.bs_sigma_t[nodes], carried[nodes])
        return self._keyword_set

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
        self._rare_min_bs = memoryview(bs_via.min(axis=1))
        self._rare_min_os = memoryview(os_via.min(axis=1))

    def floor_rejects(self, node: int, mask: int, os: float, bs: float, upper: float) -> bool:
        """Strategy 2 for every keyword a label at *node* misses.

        A route completing the label passes, for each missing keyword w,
        some node ``l`` carrying it, so its budget is at least ``bs +
        min_l [BS(sigma_{node,l}) + BS(sigma_{l,t})]`` and its objective at
        least ``os + min_l [OS(tau_{node,l}) + OS(tau_{l,t})]``: the node's
        *keyword floor* for w.  The label is rejected when, for some missing
        bit, the budget bound exceeds ``Delta * (1 + _PROOF_SLACK)`` or the
        objective bound reaches ``upper * (1 + _PROOF_SLACK)`` — no
        completion can be feasible or beat *upper*.  The slack absorbs the
        different association of the floor's sums (see :data:`_PROOF_SLACK`).

        Only nodes of out-degree >= :data:`FLOOR_MIN_DEGREE` have a floor.
        It is built on first need and kept for the query; its objective
        half waits until *upper* is finite.  Ask only about a query that
        :meth:`impossibility_reason` cleared: every keyword has a node.
        """
        missing = self.binding.full_mask & ~mask
        if not missing:
            return False
        floor = self._floors.get(node)
        if floor is None:
            wide = self.graph.out_degree(node) >= FLOOR_MIN_DEGREE
            floor = self._floors[node] = [self._keyword_floor(node, 0), None] if wide else ()
        if not floor:
            return False
        bits = self._mask_bits.get(missing)
        if bits is None:
            bits = self._mask_bits[missing] = self.binding.uncovered_bits(mask)
        limit = self.limit
        budget = floor[0]
        for bit in bits:
            if bs + budget[bit] > limit:
                return True
        if upper == math.inf:
            return False
        objective = floor[1]
        if objective is None:
            objective = floor[1] = self._keyword_floor(node, 1)
        reach = upper * (1.0 + _PROOF_SLACK)
        for bit in bits:
            if os + objective[bit] >= reach:
                return True
        return False

    def _keyword_floor(self, node: int, half: int) -> list[float]:
        """Per keyword bit, ``min_l [row(node, l) + to_t(l)]`` over the
        nodes ``l`` carrying it: the sigma budget (*half* 0) or tau
        objective (1) half of the keyword floor.  Bits the source carries
        are never missing and read 0."""
        binding = self.binding
        # Every label's mask holds the source's bits, so the query's
        # keyword-node set holds every node a floor can need.
        nodes, sigma, bs_to_t, carried = self._keyword_nodes()
        if self._floor_segments is None:
            bits = binding.uncovered_bits(binding.node_mask(self.query.source))
            segments = [np.flatnonzero((carried & (1 << bit)) != 0) for bit in bits]
            starts = np.cumsum([0] + [len(segment) for segment in segments[:-1]])
            self._floor_segments = (bits, np.concatenate(segments), starts)
        bits, order, starts = self._floor_segments
        if half == 0:
            reader, to_t = sigma, bs_to_t
        else:
            if self._floor_tau is None:
                self._floor_tau = (self.tables.row_reader(nodes, "tau"), self.os_tau_t[nodes])
            reader, to_t = self._floor_tau
        floor = [0.0] * len(binding.nodes_with_bit)
        through = (reader.primary(node) + to_t)[order]
        for bit, value in zip(bits, np.minimum.reduceat(through, starts).tolist()):
            floor[bit] = value
        return floor

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
        if bs + self._rare_min_bs[node] > self.limit:
            return True
        if upper == math.inf:
            # Without an objective bound the joint test degenerates to the
            # budget screen above, which already passed.
            return False
        if os + self._rare_min_os[node] > upper:
            return True
        os_via = os + self._rare_os_rows.primary(node) + self._rare_os_to_t
        bs_via = bs + self._rare_bs_rows.primary(node) + self._rare_bs_to_t
        keeps = (os_via <= upper) & (bs_via <= self.limit)
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
            if via == VIA_ROOT or via == VIA_EDGE:
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


class LabelHeap:
    """Algorithm 1's frontier: one heap in Definition 8's label order."""

    buckets_opened = 0

    def __init__(self) -> None:
        self._heap: list[tuple[tuple[int, float, float, int], Label]] = []

    def push(self, label: Label, low: float) -> None:
        heapq.heappush(self._heap, (label_sort_key(label), label))

    def draw(self, bound: float) -> Label | None:
        """The lowest-order live label (lines 5-6), skipping evicted ones."""
        heap = self._heap
        while heap:
            label = heapq.heappop(heap)[1]
            if label.alive:
                return label
        return None

    @staticmethod
    def is_stale(low: float, bound: float) -> bool:
        """Line 7: the admissible completion exceeds the upper bound ``U``."""
        return low > bound


class Incumbent:
    """The top-1 answer set: the best feasible all-covering label so far.

    The label is consumed: its tau completion is its best (Lemma 3), so no
    extension of it can improve on the recorded route.  Its ``LOW`` is the
    new bound — Algorithm 1's ``U``, Algorithm 2's ``L*``.
    """

    k = 1
    consumes = True

    def __init__(self) -> None:
        self.label: Label | None = None
        self.upper_bound = math.inf

    def offer(self, ctx: SearchContext, label: Label, low: float) -> bool:
        # Always an improvement: the bound test let only ``low < U`` through.
        self.label, self.upper_bound = label, low
        return True

    def result(self, search: LabelSearch, failure_reason: str | None) -> KORResult:
        route = None if self.label is None else search.ctx.materialize(self.label)
        return KORResult(
            query=search.query,
            algorithm=search.algorithm,
            route=route,
            covers_keywords=route is not None,
            within_budget=route is not None and route.budget_score <= search.ctx.limit,
            stats=search.stats,
            failure_reason=failure_reason if route is None else None,
        )


class LabelSearch:
    """One label-correcting search over the scaled graph (Definitions 7-8).

    :meth:`run` files the source label, then draws labels from the
    *frontier* until it reports the search over, treats each drawn label's
    out-edges (:meth:`SearchContext.expand`) and its Strategy-1 jump with
    :meth:`consider`, and has the answer set package the result.

    ``frontier`` builds the frontier once the query survives the
    infeasibility screens.  A frontier files a label under its ``LOW``
    (``push``), hands out the next live label or ``None`` once the search
    is over (``draw(bound)``), tells a drawn label that can no longer
    matter (``is_stale(low, bound)``) and counts ``buckets_opened``.
    ``answers`` takes each feasible all-covering label (``offer``: True
    when the answers changed) and packages the ``result``; it holds the
    pruning bound ``upper_bound``, the domination ``k`` and ``consumes``:
    whether an offered label leaves the search.

    ``epsilon`` scales objectives (``exact`` compares true scores, which
    makes Algorithm 1 an exact branch-and-bound), the two strategies can
    be toggled for ablations, ``trace`` collects per-label events,
    ``binding`` reuses a pre-built query context and ``deadline`` ticks
    once per draw.
    """

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        tables: CostTables,
        index: InvertedIndex,
        query: KORQuery,
        algorithm: str,
        frontier: Callable[[SearchContext], LabelHeap | BucketQueue],
        answers: Incumbent | TopKCollector,
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
        self.query = query
        self.algorithm = algorithm
        self.answers = answers
        self.use_strategy1 = use_strategy1
        self.use_strategy2 = use_strategy2
        self.trace = trace
        self.deadline = deadline
        self.stats = SearchStats()
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
        self.full_mask = self.ctx.binding.full_mask
        self._make_frontier = frontier
        self.frontier: LabelHeap | BucketQueue | None = None
        self._store = LabelStore(graph.num_nodes, k=answers.k)

    def run(self) -> KORResult | KkRResult:
        """Search to the end and package the answer."""
        ctx, stats, answers = self.ctx, self.stats, self.answers
        reason = ctx.impossibility_reason(self.deadline)
        if reason is not None:
            return self._package(reason)
        self.frontier = frontier = self._make_frontier(ctx)

        root = ctx.root_label()
        low = root.os + ctx.os_tau_t_list[root.node]
        if root.mask == self.full_mask and ctx.bs_tau_t[root.node] <= ctx.limit:
            # The source (plus the target, via tau's endpoints) already
            # covers every keyword and the objective-optimal completion
            # fits the budget: tau_{s,t} is globally objective-optimal, so
            # it is the top-1 answer with no search, and KkR's first one.
            improved = answers.offer(ctx, root, low)
            if answers.consumes:
                return self._package()
            stats.bound_updates += improved
        frontier.push(root, low)
        self._store.insert(root)
        # The top-1 searches count the root among the enqueued labels; KkR
        # never has.
        stats.labels_enqueued += answers.consumes

        deadline, trace = self.deadline, self.trace
        while True:
            if deadline is not None:
                deadline.tick()
            label = frontier.draw(answers.upper_bound)
            if label is None:
                break
            stats.loops += 1
            if trace is not None:
                trace.record("dequeue", label.node, label.mask, label.scaled_os, label.os, label.bs)
            # Filed before the bound reached its current value; stale now.
            if frontier.is_stale(label.os + ctx.os_tau_t_list[label.node], answers.upper_bound):
                continue
            # The bound may have tightened since the label was filed.
            if (
                self.use_strategy2
                and ctx._floors.get(label.node, True)
                and ctx.floor_rejects(
                    label.node, label.mask, label.os, label.bs, answers.upper_bound
                )
            ):
                self._prune_strategy2(label.node, label.mask, label.scaled_os, label.os, label.bs)
                continue
            ctx.expand(label, answers.upper_bound, stats, self.consider, per_edge=trace is not None)
            # Optimisation Strategy 1's extra extension.
            if self.use_strategy1 and label.mask != self.full_mask:
                jump = ctx.jump_candidate(label)
                if jump is not None:
                    vj, seg_os, seg_bs = jump
                    stats.jump_labels_created += 1
                    self.consider(label, vj, seg_os, seg_bs, ctx.scaling.scale(seg_os), VIA_JUMP)
        return self._package("no feasible route exists")

    def consider(
        self, parent: Label, node: int, seg_os: float, seg_bs: float, seg_sos: float, via: int
    ) -> None:
        """Label treatment of one candidate extension, all checks inline."""
        ctx = self.ctx
        stats = self.stats
        trace = self.trace
        stats.labels_created += 1
        new_mask = parent.mask | ctx.binding.node_masks[node]
        new_os = parent.os + seg_os
        new_bs = parent.bs + seg_bs
        new_sos = parent.scaled_os + seg_sos
        if trace is not None:
            trace.record("create", node, new_mask, new_sos, new_os, new_bs)

        if new_bs + ctx.bs_sigma_t_list[node] > ctx.limit:
            stats.labels_pruned_budget += 1
            if trace is not None:
                trace.record("prune_budget", node, new_mask, new_sos, new_os, new_bs)
            return
        # LOW(L) (Lemma 3) is monotone along extensions, so neither this
        # label's completions nor its descendants' can beat the bound.
        low = new_os + ctx.os_tau_t_list[node]
        upper = self.answers.upper_bound
        if not low < upper:
            stats.labels_pruned_bound += 1
            if trace is not None:
                trace.record("prune_bound", node, new_mask, new_sos, new_os, new_bs)
            return
        # A node the floor memo holds as narrow (``()``) skips the call:
        # on road graphs that is every node.
        if self.use_strategy2 and (
            (
                ctx._floors.get(node, True)
                and ctx.floor_rejects(node, new_mask, new_os, new_bs, upper)
            )
            or ctx.strategy2_rejects(node, new_mask, new_os, new_bs, upper)
        ):
            self._prune_strategy2(node, new_mask, new_sos, new_os, new_bs)
            return

        label = Label(node, new_mask, new_sos, new_os, new_bs, parent=parent, via=via)
        if self._store.is_dominated(label):
            stats.labels_pruned_dominated += 1
            if trace is not None:
                trace.record("prune_dominated", node, new_mask, new_sos, new_os, new_bs)
            return

        if new_mask == self.full_mask and new_bs + ctx.bs_tau_t[node] <= ctx.limit:
            # Feasible completion via tau_{j,t}: an answer (lines 17-19).
            if self.answers.offer(ctx, label, low):
                stats.bound_updates += 1
                if trace is not None:
                    trace.record("bound_update", node, new_mask, new_sos, new_os, new_bs, low)
            if self.answers.consumes:
                return
        # Otherwise (line 20) — covering everything but tau's budget does
        # not fit, or a KkR answer whose other completions may rank too —
        # keep searching from it.
        self.frontier.push(label, low)
        self._store.insert(label, self._on_evict)
        stats.labels_enqueued += 1
        if trace is not None:
            trace.record("enqueue", node, new_mask, new_sos, new_os, new_bs, low)

    def _prune_strategy2(self, node: int, mask: int, sos: float, os: float, bs: float) -> None:
        self.stats.labels_pruned_strategy2 += 1
        if self.trace is not None:
            self.trace.record("prune_strategy2", node, mask, sos, os, bs)

    def _on_evict(self, _victim: Label) -> None:
        self.stats.labels_evicted += 1

    def _package(self, failure_reason: str | None = None) -> KORResult | KkRResult:
        if self.frontier is not None:
            self.stats.buckets_opened = self.frontier.buckets_opened
        result = self.answers.result(self, failure_reason)
        self.stats.runtime_seconds = time.perf_counter() - self._start
        return result
