"""Greedy — the paper's heuristic algorithm (Algorithm 3).

From the source, repeatedly jump to the node that carries uncovered query
keywords and minimises Equation 1's blended score

    score(vj, Ri) = alpha * (Ri.OS + OS(tau_{i,j}) + OS(tau_{j,t}))
                  + (1-alpha) * (Ri.BS + BS(tau_{i,j}) + BS(tau_{j,t}))

then finish with ``tau_{i,t}``.  Greedy-1 follows the single best node;
Greedy-2 branches on the best two at every step (``width=2``), exploring
up to ``2^m`` candidate routes.  The algorithm has **no guarantee**: the
returned route may exceed the budget, and with ``mode="budget"`` (the
paper's variant for hard money budgets) it respects the budget but may
leave keywords uncovered.

Coverage credit: Algorithm 3 line 10 updates ``wordSet`` with the selected
waypoint's ``vm.psi`` only, yet the returned route is scored on what it
actually covers (line 13) — so keywords picked up incidentally by the
intermediate nodes of a ``tau`` segment are covered but, read literally,
never credited during the search, and the walk makes explicit detours to
keywords it already passed.  ``credit_path_keywords=True`` (default)
credits them, which materially lowers budget overruns on dense graphs;
``False`` gives the literal pseudocode behaviour.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.deadline import Deadline
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KORResult, SearchStats
from repro.core.route import Route
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["greedy"]


@dataclass
class _Leaf:
    """One completed branch of the (possibly branching) greedy search."""

    waypoints: tuple[int, ...]
    mask: int
    os: float
    bs: float
    completion: str  # "tau" or "sigma"


def greedy(
    graph: SpatialKeywordGraph,
    tables: CostTables,
    index: InvertedIndex,
    query: KORQuery,
    alpha: float = 0.5,
    width: int = 1,
    mode: str = "coverage",
    credit_path_keywords: bool = True,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KORResult:
    """Answer *query* heuristically with Algorithm 3.

    Parameters
    ----------
    alpha:
        Equation 1's balance: 0 selects on budget only, 1 on objective only.
    width:
        Branching factor per step; 1 is Greedy-1, 2 is Greedy-2.
    mode:
        ``"coverage"`` guarantees keyword coverage (budget may overrun,
        the paper's default); ``"budget"`` guarantees the budget (keywords
        may stay uncovered, the paper's modified variant).
    credit_path_keywords:
        Credit keywords covered by the intermediate nodes of each traversed
        ``tau`` segment (see the module docstring); ``False`` is the
        literal pseudocode.
    """
    start = time.perf_counter()
    algorithm = f"greedy-{width}" if mode == "coverage" else f"greedy-{width}-budget"
    stats = SearchStats()
    if not 0.0 <= alpha <= 1.0:
        raise QueryError(f"alpha must be within [0, 1], got {alpha}")
    if width < 1:
        raise QueryError(f"width must be >= 1, got {width}")
    if mode not in ("coverage", "budget"):
        raise QueryError(f"mode must be 'coverage' or 'budget', got {mode!r}")

    if binding is None:
        binding = QueryBinding.bind(graph, index, query)
    source, target, delta = query.source, query.target, query.budget_limit
    full_mask = binding.full_mask
    os_tau_t = tables.os_tau_col(target)
    bs_tau_t = tables.bs_tau_col(target)
    bs_sigma_t = tables.bs_sigma_col(target)
    os_sigma_t = tables.os_sigma_entries(target)  # per node: the sigma fallback's score

    def fail(reason: str) -> KORResult:
        stats.runtime_seconds = time.perf_counter() - start
        return KORResult(
            query=query,
            algorithm=algorithm,
            route=None,
            covers_keywords=False,
            within_budget=False,
            stats=stats,
            failure_reason=reason,
        )

    if binding.missing_keywords and mode == "coverage":
        return fail(
            "keywords not present in the graph: "
            + ", ".join(sorted(binding.missing_keywords))
        )
    if not np.isfinite(os_tau_t[source]):
        return fail("target is unreachable from source")

    # Cache of candidate-node unions per missing mask (the nodeSet of
    # Algorithm 3 lines 3-5, shrunk as keywords get covered).
    union_cache: dict[int, np.ndarray] = {}

    def candidates_for(missing: int) -> np.ndarray:
        cached = union_cache.get(missing)
        if cached is None:
            lists = [
                postings
                for bit, postings in enumerate(binding.nodes_with_bit)
                if missing & (1 << bit) and len(postings)
            ]
            cached = np.unique(np.concatenate(lists)) if lists else np.empty(0, dtype=np.int64)
            union_cache[missing] = cached
        return cached

    leaves: list[_Leaf] = []

    def complete(waypoints: tuple[int, ...], mask: int, os: float, bs: float) -> None:
        """Append the last segment to the target (Algorithm 3 line 12)."""
        current = waypoints[-1]
        if not np.isfinite(os_tau_t[current]):
            return
        if mode == "budget" and bs + bs_tau_t[current] > delta:
            # Budget-priority completion: fall back to the budget-optimal
            # path when tau does not fit.
            if bs + bs_sigma_t[current] > delta:
                return
            leaves.append(
                _Leaf(
                    waypoints,
                    mask,
                    os + float(os_sigma_t[current]),
                    bs + float(bs_sigma_t[current]),
                    "sigma",
                )
            )
            return
        leaves.append(
            _Leaf(
                waypoints, mask, os + float(os_tau_t[current]), bs + float(bs_tau_t[current]), "tau"
            )
        )

    def extend(waypoints: tuple[int, ...], mask: int, os: float, bs: float) -> None:
        if deadline is not None:
            deadline.tick()
        stats.loops += 1
        if mask == full_mask:
            complete(waypoints, mask, os, bs)
            return
        current = waypoints[-1]
        nodes = candidates_for(full_mask & ~mask)
        if len(nodes) == 0:
            complete(waypoints, mask, os, bs)
            return
        os_seg = tables.os_tau_row(current)[nodes]
        bs_seg = tables.bs_tau_row(current)[nodes]
        os_proj = os + os_seg + os_tau_t[nodes]
        bs_proj = bs + bs_seg + bs_tau_t[nodes]
        # 0 * inf = nan for unreachable candidates at the alpha extremes;
        # they are dropped by the finite filter below, so silence the blend.
        with np.errstate(invalid="ignore"):
            scores = alpha * os_proj + (1.0 - alpha) * bs_proj
        valid = np.isfinite(scores)
        if mode == "budget":
            # Only nodes that keep a budget-feasible completion reachable.
            valid &= (bs + bs_seg + bs_sigma_t[nodes]) <= delta
        if not valid.any():
            complete(waypoints, mask, os, bs)
            return
        stats.labels_created += int(valid.sum())
        order = np.argsort(scores[valid], kind="stable")
        chosen = nodes[valid][order[:width]]
        for vm in chosen:
            vm = int(vm)
            new_mask = mask | binding.node_mask(vm)
            if credit_path_keywords:
                for hop in tables.tau_path(current, vm):
                    new_mask |= binding.node_mask(hop)
            extend(
                waypoints + (vm,),
                new_mask,
                os + float(tables.os_tau_row(current)[vm]),
                bs + float(tables.bs_tau_row(current)[vm]),
            )

    extend((source,), binding.node_mask(source), 0.0, 0.0)

    if not leaves:
        return fail("greedy could not reach the target covering the keywords")

    def leaf_rank(leaf: _Leaf) -> tuple[int, float, float]:
        feasible = leaf.mask == full_mask and leaf.bs <= delta + 1e-9
        return (0 if feasible else 1, leaf.os, leaf.bs)

    best = min(leaves, key=leaf_rank)
    route = _materialize(graph, tables, best, target)
    stats.runtime_seconds = time.perf_counter() - start
    covered = route.covered_keywords(graph)
    covers = all(kid is not None and kid in covered for kid in binding.keyword_ids)
    return KORResult(
        query=query,
        algorithm=algorithm,
        route=route,
        covers_keywords=covers,
        within_budget=route.budget_score <= delta + 1e-9,
        stats=stats,
    )


def _materialize(graph: SpatialKeywordGraph, tables: CostTables, leaf: _Leaf, target: int) -> Route:
    """Concatenate the tau segments between waypoints plus the completion."""
    nodes: list[int] = [leaf.waypoints[0]]
    for prev, nxt in zip(leaf.waypoints, leaf.waypoints[1:]):
        nodes.extend(tables.tau_path(prev, nxt)[1:])
    last = leaf.waypoints[-1]
    segment = (
        tables.tau_path(last, target)
        if leaf.completion == "tau"
        else tables.sigma_path(last, target)
    )
    nodes.extend(segment[1:])
    return Route.from_nodes(graph, nodes)
