"""All-pairs two-criteria shortest paths: the one table builder.

The paper runs Floyd-Warshall, which is Theta(V^3) — fine in VC++ on 5k
nodes, hopeless in pure Python, and slower than this sweep on road graphs
from 20 nodes up.  On sparse graphs the same tables fall out of one
compiled Dijkstra sweep per source (:func:`scipy.sparse.csgraph.
dijkstra`), plus a vectorised *pointer-doubling* pass that recovers the
secondary score of every chosen path without walking paths one by one:

1. scipy returns, per source block, the primary distances and the
   predecessor matrix ``P``.
2. ``step[j] = secondary(P[j], j)`` is gathered in one fancy-indexing shot.
3. At most ``log2(n)`` rounds of ``S += S[P]; P = P[P]`` accumulate the
   secondary weight along every predecessor chain simultaneously.

**Scratch bound.**  Sources are swept in row blocks of
``max(1, SWEEP_BLOCK_BYTES // (8 * m))`` rows over ``m`` nodes, each
block written into preallocated outputs, so one ``(rows, m)`` float64
scratch array of the sweep stays within :data:`SWEEP_BLOCK_BYTES`
(256 KiB) and a block's ten or so such arrays within a few MiB, whatever
the graph's size (on 600 road nodes the build's traced peak is its
outputs, the lookup below and ~9 budgets).  The result is bitwise the
same for every block size: scipy resets its state per source, and a
doubling round a block runs beyond some row's chain end adds that row's
terminal ``0.0``.  The one ``O(n^2)`` scratch left is
:func:`_dense_secondary_lookup`, the ``(n, n)`` float64 matrix of
secondary edge weights the doubling gathers from: scipy's CSR
fancy-index gather in its place took 1.2 ms against 0.06 ms per 64-row
block on the 610-node e2e Flickr graph (2 vCPU).

Among paths that tie on the primary, the stored path is the one scipy's
predecessors describe — not the lexicographic ``(primary, secondary)``
minimum — and its secondary is that path's own.

**Row repair.**  After an edge change, :func:`repair_two_criteria`
re-sweeps only the source rows the change can move and copies the rest
— bitwise what a full sweep of the new graph stores, with no tie rule.
The licence: scipy relaxes on a strict improvement and resets its state
per source, so when a row's finite distances are pairwise distinct,
extract-min never chooses between equal keys and each node's
predecessor is its tight in-neighbour of smallest distance.  Such a row
is a function of the weighted graph (not of adjacency order or of the
other sources swept alongside), and it survives an edge change unless
the edge is in its tree or can now tie or beat a stored distance.  A row
with two reachable nodes at a bitwise-equal distance is always
re-swept, over the same CSR a rebuild would sweep.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra as _csgraph_dijkstra

from repro.graph.digraph import SpatialKeywordGraph

__all__ = [
    "NO_PREDECESSOR",
    "all_pairs_two_criteria",
    "multi_source_two_criteria",
    "repair_all_pairs",
    "repair_two_criteria",
    "single_source_two_criteria",
    "sweep_two_criteria",
]

#: Sentinel used in predecessor matrices (matches scipy.sparse.csgraph).
NO_PREDECESSOR = -9999

#: Bytes one ``(rows, m)`` float64 scratch array of a sweep block may
#: take (module docstring, "Scratch bound").
SWEEP_BLOCK_BYTES = 256 * 1024


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
    # Redirect invalid predecessors (the source's own, unreachable nodes)
    # to the source of the row: the absorbing chain terminal, whose step
    # is 0 and which points at itself, so repeated jumps add nothing.
    source_col = sources.astype(np.int64)[:, None]
    valid = pred >= 0
    chain = np.where(valid, pred, source_col)
    # One flat gather of ``sec_lookup[chain, j]``; the entries it reads at
    # invalid predecessors are masked off, not relied on.
    step = np.where(valid, sec_lookup.ravel()[chain * n + np.arange(n)], 0.0)

    # Jump on the raveled arrays: ``chain`` shifted by each row's offset
    # indexes ``total`` flat, which is ``take_along_axis`` without its
    # per-call index broadcasting — the same sums, in the same order.
    offsets = np.arange(rows, dtype=np.int64)[:, None] * n
    flat = (chain + offsets).ravel()
    terminal = source_col + offsets
    total = step.ravel()
    hops = max(1, int(np.ceil(np.log2(max(n, 2)))))
    for _ in range(hops):
        total = total + total[flat]
        flat = flat[flat]
        # Every chain has reached its source after log2(longest path)
        # rounds; the rest would add the terminal's 0.0.
        if (flat.reshape(rows, n) == terminal).all():
            break
    return total.reshape(rows, n)


def _row_blocks(count: int, m: int) -> list[slice]:
    """Consecutive slices over *count* rows of *m* columns, each block
    within one :data:`SWEEP_BLOCK_BYTES` float64 scratch array."""
    size = max(1, SWEEP_BLOCK_BYTES // (8 * max(m, 1)))
    return [slice(start, start + size) for start in range(0, count, size)]


def _sweep_into(
    weights: csr_matrix,
    sec_lookup: np.ndarray,
    sources: np.ndarray,
    outputs: tuple[np.ndarray, np.ndarray, np.ndarray],
    rows: np.ndarray,
) -> None:
    """Sweep *sources* block by block, writing source ``sources[i]``'s
    ``(primary, secondary, predecessors)`` into row ``rows[i]`` of the
    three *outputs*."""
    for at in _row_blocks(len(sources), weights.shape[0]):
        block = sources[at]
        dist, pred = _csgraph_dijkstra(weights, indices=block, return_predecessors=True)
        secondary = _secondary_by_pointer_doubling(pred, block, sec_lookup)
        secondary[~np.isfinite(dist)] = np.inf
        for output, values in zip(outputs, (dist, secondary, pred)):
            output[rows[at]] = values


def sweep_two_criteria(
    weights: csr_matrix, sec_lookup: np.ndarray, sources: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The matrix-level sweep: ``(primary_cost, secondary_cost, predecessors)``.

    One row per entry of *sources* over the ``m`` nodes of *weights* (the
    primary edge weights, CSR); ``sec_lookup[u, v]`` is the secondary
    weight of edge ``(u, v)`` and is only read at predecessor edges.
    This is the one Dijkstra + pointer-doubling implementation, swept in
    bounded row blocks (module docstring): the graph fronts below feed
    it a graph's edges, the partitioned border tier
    (:mod:`repro.prep.partition`) the overlay of border nodes.
    """
    sources = np.asarray(sources, dtype=np.int64)
    shape = (len(sources), weights.shape[0])
    outputs = (np.empty(shape), np.empty(shape), np.empty(shape, dtype=np.int32))
    _sweep_into(weights, sec_lookup, sources, outputs, np.arange(len(sources)))
    return outputs


def repair_two_criteria(
    previous: tuple[np.ndarray, np.ndarray, np.ndarray],
    weights: csr_matrix,
    sec_lookup: np.ndarray,
    changed: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Repair an all-sources sweep after the edges *changed* were re-costed.

    *previous* is ``(primary, secondary, predecessors)`` of
    :func:`sweep_two_criteria` over every node as a source, on the graph
    before the change; *weights* and *sec_lookup* describe the graph
    after it, and *changed* lists every ``(tail, head)`` pair the change
    set or dropped (re-costed, closed or re-opened; listing a pair whose
    weights stayed put only costs rows).  Returns the new ``(primary,
    secondary, predecessors, swept)``: bitwise the full sweep of the new
    graph (module docstring), where ``swept`` holds the rows that were
    swept again — those in which

    * a changed edge ``(x, y)`` is in the stored tree (``pred[s, y] ==
      x``): an increase, a drop, a secondary-only re-cost;
    * the new ``dist[s, x] + w(x, y)`` is finite and ``<= dist[s, y]``: a
      decrease or a re-opened edge that ties or beats the stored path;
    * two reachable nodes sit at a bitwise-equal distance.

    Every other row is copied, so the previous arrays are never written
    and readers holding them keep a consistent table.  The tie check
    sorts, and the re-sweep runs, in the sweep's bounded row blocks.
    """
    dist, secondary, pred = previous
    changed = np.asarray(changed, dtype=np.int64).reshape(-1, 2)
    if not len(changed):
        # Nothing set or dropped: the same CSR, so a sweep stores the same.
        return dist, secondary, pred, np.empty(0, dtype=np.int64)
    tails, heads = changed[:, 0], changed[:, 1]
    # A pair missing from the new CSR reads 0, which no edge weighs.
    stored = np.asarray(weights[tails, heads]).ravel()
    fresh = np.where(stored > 0, stored, np.inf)

    in_tree = (pred[:, heads] == tails).any(axis=1)
    candidate = dist[:, tails] + fresh
    improves = (np.isfinite(candidate) & (candidate <= dist[:, heads])).any(axis=1)
    stale = in_tree | improves
    kept = np.flatnonzero(~stale)
    for at in _row_blocks(len(kept), dist.shape[1]):
        ordered = dist[kept[at]]
        ordered.sort(axis=1)
        tied = (ordered[:, 1:] == ordered[:, :-1]) & np.isfinite(ordered[:, 1:])
        stale[kept[at][tied.any(axis=1)]] = True
    swept = np.flatnonzero(stale)
    if not len(swept):
        return dist, secondary, pred, swept
    repaired = tuple(table.copy() for table in previous)
    _sweep_into(weights, sec_lookup, swept, repaired, swept)
    return (*repaired, swept)


def all_pairs_two_criteria(
    graph: SpatialKeywordGraph, primary: str = "objective"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return ``(primary_cost, secondary_cost, predecessors)`` matrices.

    ``primary="objective"`` computes the ``tau`` tables (objective-optimal
    paths with their budget scores); ``primary="budget"`` the ``sigma``
    tables.  ``predecessors[i, j]`` is the node preceding ``j`` on the
    stored ``i -> j`` path (``NO_PREDECESSOR`` on the diagonal and for
    unreachable pairs); the three matrices describe one consistent path
    per pair, chosen among primary ties by scipy's internal order.
    """
    if primary not in ("objective", "budget"):
        raise ValueError(f"primary must be 'objective' or 'budget', got {primary!r}")
    return sweep_two_criteria(
        _csr_weight_matrix(graph, primary),
        _dense_secondary_lookup(graph, primary),
        np.arange(graph.num_nodes),
    )


def repair_all_pairs(
    graph: SpatialKeywordGraph,
    previous: tuple[np.ndarray, np.ndarray, np.ndarray],
    changed: np.ndarray,
    primary: str = "objective",
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """:func:`all_pairs_two_criteria` of *graph*, repaired from *previous*.

    *previous* is that function's output on the graph before the edges
    *changed* were set or dropped; the result is :func:`repair_two_criteria`'s
    ``(primary, secondary, predecessors, swept)``.
    """
    return repair_two_criteria(
        previous,
        _csr_weight_matrix(graph, primary),
        _dense_secondary_lookup(graph, primary),
        changed,
    )


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
    dist, secondary, pred = multi_source_two_criteria(graph, np.asarray([source]), primary)
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
