"""All-pairs two-criteria shortest paths via repeated Dijkstra.

The paper runs Floyd-Warshall, which is Theta(V^3) — fine in VC++ on 5k
nodes, hopeless in pure Python.  On sparse graphs the same tables fall out
of one compiled Dijkstra sweep per source (:func:`scipy.sparse.csgraph.
dijkstra`), plus a vectorised *pointer-doubling* pass that recovers the
secondary score of every chosen path without walking paths one by one:

1. scipy returns, per source block, the primary distances and the
   predecessor matrix ``P``.
2. ``step[j] = secondary(P[j], j)`` is gathered in one fancy-indexing shot.
3. At most ``log2(n)`` rounds of ``S += S[P]; P = P[P]`` accumulate the
   secondary weight along every predecessor chain simultaneously.

Sources are processed in row blocks to bound peak memory, so graphs with
tens of thousands of nodes remain tractable.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.floyd_warshall import NO_PREDECESSOR

__all__ = [
    "all_pairs_two_criteria",
    "multi_source_two_criteria",
    "single_source_two_criteria",
    "sweep_two_criteria",
]


def _csr_weight_matrix(graph: SpatialKeywordGraph, which: str) -> csr_matrix:
    indptr, indices, objectives, budgets = graph.to_csr()
    data = objectives if which == "objective" else budgets
    n = graph.num_nodes
    return csr_matrix((data, indices, indptr), shape=(n, n))


def _dense_secondary_lookup(graph: SpatialKeywordGraph, which: str) -> np.ndarray:
    """Dense (n, n) matrix of secondary edge weights (0 where no edge).

    Zeros for non-edges are safe: the pointer-doubling pass only gathers
    entries at true predecessor edges.
    """
    n = graph.num_nodes
    indptr, indices, objectives, budgets = graph.to_csr()
    lookup = np.zeros((n, n), dtype=np.float64)
    tails = np.repeat(np.arange(n), np.diff(indptr))
    lookup[tails, indices] = budgets if which == "objective" else objectives
    return lookup


def _secondary_by_pointer_doubling(
    pred: np.ndarray, sources: np.ndarray, sec_lookup: np.ndarray
) -> np.ndarray:
    """Accumulate secondary weights along every predecessor chain.

    ``pred`` has one row per source in *sources*; entry ``pred[r, j]`` is the
    global id of the node preceding ``j`` on the path from ``sources[r]``.
    """
    rows, n = pred.shape
    cols = np.broadcast_to(np.arange(n, dtype=np.int64), (rows, n))

    # Redirect invalid predecessors (diagonal, unreachable) to the source of
    # the row, which acts as the absorbing chain terminal with step 0.
    source_col = sources.astype(np.int64)[:, None]
    valid = pred >= 0
    chain = np.where(valid, pred.astype(np.int64), source_col)

    step = np.zeros((rows, n), dtype=np.float64)
    step[valid] = sec_lookup[chain[valid], cols[valid]]
    # The terminal must point at itself so repeated jumps add nothing.
    row_idx = np.arange(rows)
    chain[row_idx, sources] = sources
    step[row_idx, sources] = 0.0

    total = step
    hops = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(hops):
        total = total + np.take_along_axis(total, chain, axis=1)
        chain = np.take_along_axis(chain, chain, axis=1)
        # Every chain has reached its source after log2(longest path)
        # rounds; the rest would add the terminal's 0.0.
        if (chain == source_col).all():
            break
    return total


def sweep_two_criteria(
    weights: csr_matrix, sec_lookup: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrix-level sweep: ``(primary_cost, secondary_cost, predecessors)``.

    One row per entry of *sources* over the ``m`` nodes of *weights* (the
    primary edge weights, CSR); ``sec_lookup[u, v]`` is the secondary
    weight of edge ``(u, v)`` and is only read at predecessor edges.
    This is the one Dijkstra + pointer-doubling implementation: the graph
    fronts below feed it a graph's edges, the partitioned border tier
    (:mod:`repro.prep.partition`) the overlay of border nodes.
    """
    sources = np.asarray(sources, dtype=np.int64)
    if sources.size == 0:
        m = weights.shape[0]
        return (
            np.empty((0, m), dtype=np.float64),
            np.empty((0, m), dtype=np.float64),
            np.empty((0, m), dtype=np.int32),
        )
    dist, pred = _csgraph_dijkstra(weights, indices=sources, return_predecessors=True)
    secondary = _secondary_by_pointer_doubling(pred, sources, sec_lookup)
    secondary[~np.isfinite(dist)] = np.inf
    return dist, secondary, pred.astype(np.int32, copy=False)


def all_pairs_two_criteria(
    graph: SpatialKeywordGraph,
    primary: str = "objective",
    block_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(primary_cost, secondary_cost, predecessors)`` matrices.

    Same contract as
    :func:`repro.prep.floyd_warshall.floyd_warshall_two_criteria`, except
    ties between primary-optimal paths follow scipy's internal order rather
    than the lexicographic rule; the three matrices still describe one
    consistent path per pair.
    """
    if primary not in ("objective", "budget"):
        raise ValueError(f"primary must be 'objective' or 'budget', got {primary!r}")
    n = graph.num_nodes
    weights = _csr_weight_matrix(graph, primary)
    sec_lookup = _dense_secondary_lookup(graph, primary)

    if block_size is None:
        # Keep per-block scratch (several (block, n) float64 arrays) modest.
        block_size = max(64, min(n, 16_000_000 // max(n, 1)))

    prim_out = np.empty((n, n), dtype=np.float64)
    sec_out = np.empty((n, n), dtype=np.float64)
    pred_out = np.empty((n, n), dtype=np.int32)

    for start in range(0, n, block_size):
        sources = np.arange(start, min(start + block_size, n))
        prim_out[sources], sec_out[sources], pred_out[sources] = sweep_two_criteria(
            weights, sec_lookup, sources
        )

    return prim_out, sec_out, pred_out


def multi_source_two_criteria(
    graph: SpatialKeywordGraph,
    sources: np.ndarray,
    primary: str = "objective",
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-per-source variant: ``(primary_cost, secondary_cost, predecessors)``.

    Equivalent to stacking :func:`single_source_two_criteria` over
    *sources*, but the CSR weight matrix and the dense secondary lookup
    are built once and every source shares a single compiled Dijkstra
    sweep — the setup cost is what dominates repeated one-source calls.
    """
    return sweep_two_criteria(
        _csr_weight_matrix(graph, primary),
        _dense_secondary_lookup(graph, primary),
        sources,
    )


def single_source_two_criteria(
    graph: SpatialKeywordGraph, source: int, primary: str = "objective"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-source variant: ``(primary_cost, secondary_cost, predecessors)`` rows."""
    dist, secondary, pred = multi_source_two_criteria(
        graph, np.asarray([source]), primary
    )
    return dist[0], secondary[0], pred[0]


def reconstruct_path(pred_row: np.ndarray, source: int, target: int) -> list[int]:
    """Walk a predecessor row back from *target* to *source*.

    Returns the node sequence ``[source, ..., target]``; raises
    ``ValueError`` when the target is unreachable.
    """
    if source == target:
        return [source]
    path = [target]
    node = target
    for _ in range(len(pred_row)):
        node = int(pred_row[node])
        if node == NO_PREDECESSOR or node < 0:
            raise ValueError(f"node {target} is unreachable from {source}")
        path.append(node)
        if node == source:
            path.reverse()
            return path
    raise ValueError("predecessor chain does not terminate; corrupt matrix")
