"""All-pairs two-criteria shortest paths via Floyd-Warshall: the test reference.

This is the pre-processing method the paper prescribes (Section 3.1): for
every node pair ``(vi, vj)`` find the path ``tau_{i,j}`` minimising the
objective score and the path ``sigma_{i,j}`` minimising the budget score,
recording *both* scores of each.

It minimises the *primary* weight and, among primary-optimal paths, the
*secondary* weight (lexicographic order).  The lexicographic pair forms a
semiring, so the classic FW recurrence remains correct and — unlike
scipy's tie rule, which the one builder
(:func:`repro.prep.dijkstra.all_pairs_two_criteria`) keeps — produces a
canonical, implementation-independent answer.  The builder is tested
against it: primaries equal, and no builder secondary below the
lexicographic one.

Theta(V^3) with vectorised numpy inner updates; for test-sized graphs.
"""

from __future__ import annotations

import numpy as np

from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.dijkstra import NO_PREDECESSOR

__all__ = ["floyd_warshall_two_criteria"]


def floyd_warshall_two_criteria(
    graph: SpatialKeywordGraph, primary: str = "objective"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(primary_cost, secondary_cost, predecessors)`` matrices.

    ``primary="objective"`` computes the ``tau`` tables (objective-optimal
    paths with their budget scores); ``primary="budget"`` computes the
    ``sigma`` tables.  ``predecessors[i, j]`` is the node preceding ``j`` on
    the stored ``i -> j`` path (``NO_PREDECESSOR`` on the diagonal and for
    unreachable pairs).  The three matrices always describe the same path.
    """
    if primary not in ("objective", "budget"):
        raise ValueError(f"primary must be 'objective' or 'budget', got {primary!r}")
    n = graph.num_nodes
    prim = np.full((n, n), np.inf, dtype=np.float64)
    sec = np.full((n, n), np.inf, dtype=np.float64)
    pred = np.full((n, n), NO_PREDECESSOR, dtype=np.int32)

    for edge in graph.iter_edges():
        p, s = (
            (edge.objective, edge.budget)
            if primary == "objective"
            else (edge.budget, edge.objective)
        )
        # Parallel edges are impossible (the builder rejects duplicates), but
        # keep the lexicographic min for safety with hand-built adjacency.
        if (p, s) < (prim[edge.u, edge.v], sec[edge.u, edge.v]):
            prim[edge.u, edge.v] = p
            sec[edge.u, edge.v] = s
            pred[edge.u, edge.v] = edge.u

    diag = np.arange(n)
    prim[diag, diag] = 0.0
    sec[diag, diag] = 0.0

    for k in range(n):
        # Candidate path i -> k -> j, vectorised over all (i, j).
        cand_prim = prim[:, k, None] + prim[None, k, :]
        cand_sec = sec[:, k, None] + sec[None, k, :]
        better = cand_prim < prim
        tie_better = (cand_prim == prim) & (cand_sec < sec)
        improve = better | tie_better
        if not improve.any():
            continue
        prim = np.where(improve, cand_prim, prim)
        sec = np.where(improve, cand_sec, sec)
        pred = np.where(improve, np.broadcast_to(pred[k, :], (n, n)), pred)

    # A path through k never improves i -> i (weights are positive), so the
    # diagonal stays (0, 0) with no predecessor.
    pred[diag, diag] = NO_PREDECESSOR
    return prim, sec, pred
