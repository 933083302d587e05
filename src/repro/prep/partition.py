"""Partition-based pre-processing (the paper's future work, Section 6).

The paper sketches: split the graph into subgraphs, pre-process all-pairs
scores *within* each subgraph only, and additionally store the best
objective/budget scores between every pair of **border nodes** (nodes
with an edge crossing cells).  A cross-cell score is then assembled as

    score(i, j) = min over border exits b1 of cell(i), entries b2 of
                  cell(j) of  in_cell(i -> b1) + border(b1 -> b2) +
                  in_cell(b2 -> j)

This assembly is **exact**, not merely an upper bound.  Crossing a cell
boundary is only possible along an edge whose endpoints are both border
nodes, so any optimal path from ``i`` decomposes at its *first* border
node ``b1`` (the prefix can never have left ``cell(i)``) and its *last*
border node ``b2`` (the suffix can never leave ``cell(j)``), with an
optimal ``b1 -> b2`` leg of the whole graph in between.  Minimising over
every ``(b1, b2)`` combination therefore recovers the flat table's value
for both path families (``tau`` and ``sigma``), and a path that never
touches a border node is covered by the in-cell term.  What the
partitioned tables trade away is not accuracy but *pre-processing
shape*: ``O(sum n_c^2 + k^2)`` floats instead of ``O(n^2)``, with per-pair
assembly work at query time.  The accompanying ablation benchmark
quantifies build time and memory against the flat tables.

**The border tier is swept on an overlay, not on the graph.**  The same
observation applies to the middle leg itself: between two boundary
crossings a path runs inside one cell from a border node to a border
node, and may as well run along that cell's optimal in-cell path.  So
``border(b1 -> b2)`` is a shortest path on the overlay **H** whose nodes
are the ``k`` border nodes and whose edges are, per kind,

* every **cut edge** (an edge of the graph joining two cells) at its own
  two weights, and
* per cell a **shortcut** ``b -> b'`` for every ordered pair of its
  border nodes that can reach each other in-cell, weighted with the
  ``(primary, secondary)`` entry of that cell's already resident
  :class:`~repro.prep.tables.CostTables`.

Every walk of H expands to a walk of the graph with the same two sums,
and every graph path contracts to an H walk that is no longer — hence
exact.  :func:`_sweep_overlay` builds H as a ``k x k`` weight pair and
runs the one two-criteria sweep (:func:`repro.prep.dijkstra.
sweep_two_criteria`) over it: ``k`` sources on ``k`` nodes instead of on
``n``, which is what a structural update pays per kind.  A border
primary is a sum over shortcuts, each itself a sum over edges, so it can
differ from a full-graph sweep's edge-by-edge sum in its **last ulp**
(``allclose``, never bitwise — routes are always re-scored from edges).
**Ties:** one sweep, scipy ties, everywhere — a cell's tables, a flat
graph's and H all keep the secondary of the walk their predecessors
describe.

:class:`PartitionedCostTables` implements the full access protocol of
:class:`repro.prep.tables.CostTables` — scalar lookups, row/column
views, multi-column gathers, rows restricted to a node set, and (when
built with ``predecessors=True``) ``tau_path`` / ``sigma_path``
materialisation.  A path is expanded leg by leg: the two in-cell legs
through their cell's predecessor matrices, the border leg by walking the
``k x k`` overlay predecessors (positions in ``border_nodes``) hop by
hop — a hop inside one cell is a shortcut and expands through *that*
cell's predecessor matrix, a hop between cells is a cut edge and stands
for itself.  That is what lets
:class:`repro.service.crosscell.BorderEngine` run every search algorithm
over a partitioned graph with flat-engine semantics.

Float addition is not associative, so *which* two legs are summed first
is part of each access path's contract.  Rows and restricted rows
(``_rows``, ``row_reader``) share one exit-side stage, the cached border
leg of the source, and associate ``(leg1 + border) + leg3``; columns
(``_columns``) and the scalar/path lookups (``_assemble_pair``) minimise
over the entry side first and associate ``leg1 + (border + leg3)``.
Within a family values are bitwise equal (a restricted read *is*
``row(i)[nodes]``; a scalar lookup *is* ``col(j)[i]``); across families
the same entry can differ in its last ulp.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import PrepError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.dijkstra import reconstruct_path, sweep_two_criteria
from repro.prep.tables import CostTables

__all__ = ["GraphPartition", "partition_graph", "PartitionedCostTables"]


@dataclass(frozen=True)
class GraphPartition:
    """Assignment of nodes to cells plus the border-node inventory.

    Attributes
    ----------
    cell_of:
        ``cell_of[v]`` is the cell id of node ``v``.
    cells:
        Node arrays per cell (sorted ascending, so ``cells[c][local]`` is
        the global id of the cell's ``local``-th node — the same dense
        re-indexing :meth:`repro.graph.digraph.SpatialKeywordGraph.
        induced_subgraph` applies).
    border_nodes:
        Sorted array of all nodes with an edge crossing cells.
    border_index:
        Position of each border node in ``border_nodes`` (-1 otherwise).
    """

    cell_of: np.ndarray
    cells: tuple[np.ndarray, ...]
    border_nodes: np.ndarray
    border_index: np.ndarray

    @property
    def num_cells(self) -> int:
        """Number of cells the graph was split into."""
        return len(self.cells)

    def is_border(self, node: int) -> bool:
        """Whether *node* has an edge into or out of another cell."""
        return self.border_index[node] >= 0


def partition_graph(graph: SpatialKeywordGraph, num_cells: int, seed: int = 0) -> GraphPartition:
    """Split *graph* into roughly balanced connected cells.

    Greedy multi-source BFS (a light-weight stand-in for METIS, which is
    unavailable offline): seeds are spread via farthest-point sampling on
    hop distance, then cells claim unassigned neighbours round-robin, so
    cells stay connected and balanced within a factor ~2.
    """
    n = graph.num_nodes
    if not 1 <= num_cells <= n:
        raise PrepError(f"num_cells must be in 1..{n}, got {num_cells}")
    rng = np.random.default_rng(seed)

    # Undirected adjacency for growth (direction matters for scores, not
    # for spatial contiguity).
    neighbours: list[set[int]] = [set() for _ in range(n)]
    for edge in graph.iter_edges():
        neighbours[edge.u].add(edge.v)
        neighbours[edge.v].add(edge.u)

    seeds = _farthest_point_seeds(neighbours, num_cells, rng)
    cell_of = np.full(n, -1, dtype=np.int64)
    frontiers: list[list[int]] = [[] for _ in range(num_cells)]
    for cell, seed_node in enumerate(seeds):
        cell_of[seed_node] = cell
        frontiers[cell] = [seed_node]

    assigned = num_cells
    while assigned < n:
        grew = False
        for cell in range(num_cells):
            frontier = frontiers[cell]
            next_frontier: list[int] = []
            claimed = False
            while frontier and not claimed:
                node = frontier.pop()
                for other in neighbours[node]:
                    if cell_of[other] == -1:
                        cell_of[other] = cell
                        next_frontier.append(other)
                        assigned += 1
                        claimed = True
                if frontier or claimed:
                    next_frontier.append(node) if claimed else None
            frontiers[cell] = next_frontier + frontier
            grew = grew or claimed
        if not grew:
            # Disconnected remainder: hand leftover nodes to the smallest
            # cells so every node lands somewhere.
            leftovers = np.flatnonzero(cell_of == -1)
            sizes = np.bincount(cell_of[cell_of >= 0], minlength=num_cells)
            for node in leftovers:
                cell = int(np.argmin(sizes))
                cell_of[node] = cell
                sizes[cell] += 1
                frontiers[cell].append(int(node))
                assigned += 1

    cells = tuple(
        np.flatnonzero(cell_of == cell).astype(np.int64) for cell in range(num_cells)
    )
    border_mask = np.zeros(n, dtype=bool)
    for edge in graph.iter_edges():
        if cell_of[edge.u] != cell_of[edge.v]:
            border_mask[edge.u] = True
            border_mask[edge.v] = True
    border_nodes = np.flatnonzero(border_mask).astype(np.int64)
    border_index = np.full(n, -1, dtype=np.int64)
    border_index[border_nodes] = np.arange(len(border_nodes))
    return GraphPartition(
        cell_of=cell_of,
        cells=cells,
        border_nodes=border_nodes,
        border_index=border_index,
    )


def _farthest_point_seeds(
    neighbours: list[set[int]], num_cells: int, rng: np.random.Generator
) -> list[int]:
    """Seed nodes spread out by hop distance (farthest-point heuristic)."""
    n = len(neighbours)
    first = int(rng.integers(n))
    seeds = [first]
    distance = _bfs_hops(neighbours, first)
    while len(seeds) < num_cells:
        # Unreached nodes (inf) are the farthest of all — prefer them so
        # disconnected components get their own seeds.
        candidate = int(np.argmax(np.where(np.isfinite(distance), distance, np.inf)))
        if candidate in seeds:
            remaining = [v for v in range(n) if v not in seeds]
            candidate = int(rng.choice(remaining))
        seeds.append(candidate)
        distance = np.minimum(distance, _bfs_hops(neighbours, candidate))
    return seeds


def _bfs_hops(neighbours: list[set[int]], source: int) -> np.ndarray:
    hops = np.full(len(neighbours), np.inf)
    hops[source] = 0
    queue = [source]
    while queue:
        node = queue.pop(0)
        for other in neighbours[node]:
            if hops[other] == np.inf:
                hops[other] = hops[node] + 1
                queue.append(int(other))
    return hops


def _lex_min(
    primary: np.ndarray, secondary: np.ndarray | None, axis: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Minimise *primary* along *axis*; break ties by smallest *secondary*.

    Unreachable entries (``inf`` primary) yield ``inf`` in both outputs.
    With ``secondary=None`` only the primary is wanted: the primary of a
    lexicographic minimum is the plain minimum.
    """
    best = primary.min(axis=axis)
    if secondary is None:
        return best, None
    expanded = best[None] if axis == 0 else best[:, None]
    tied_secondary = np.where(primary == expanded, secondary, np.inf)
    best_secondary = tied_secondary.min(axis=axis)
    return best, np.where(np.isfinite(best), best_secondary, np.inf)


def _lex_argmin(primary: np.ndarray, secondary: np.ndarray) -> int:
    """Index of the lexicographically smallest ``(primary, secondary)`` pair."""
    best = primary.min()
    tied = np.where(primary == best, secondary, np.inf)
    return int(np.argmin(tied))


#: Byte budget per cache (columns, rows, border legs, and each per-query
#: reader's memo).  Each entry holds at most two float64 arrays of the
#: cache's entry length; without a bound a long-lived engine serving varied
#: targets would quietly regrow the very ``O(n^2)`` footprint the
#: partitioned tables exist to eliminate.
_CACHE_BYTE_BUDGET = 2_000_000
#: Entry floor so tiny graphs / huge graphs still keep enough locality
#: for one query's worth of repeated lookups.
_CACHE_MIN_ENTRIES = 16


class _LRUPairCache:
    """Tiny LRU for ``key -> (primary, secondary)`` pairs of one length
    (a primary-only column keeps ``None`` for its secondary).

    Thread workers share one tables object, so every compound step runs
    under a lock; a pickled or copied cache arrives empty (caches are
    derived state, and shipping them would bloat every worker pickle
    with whatever the parent happened to look up).
    """

    def __init__(self, entry_length: int) -> None:
        self._entry_length = entry_length
        per_entry = 2 * 8 * max(entry_length, 1)
        self.capacity = max(_CACHE_MIN_ENTRIES, _CACHE_BYTE_BUDGET // per_entry)
        self._data: dict = {}
        self._lock = threading.Lock()

    def __reduce__(self):
        return type(self), (self._entry_length,)

    def get(self, key):
        with self._lock:
            value = self._data.pop(key, None)
            if value is not None:
                # Re-insert to mark recency (dicts preserve insertion order).
                self._data[key] = value
            return value

    def put(self, key, value) -> None:
        with self._lock:
            if key not in self._data and len(self._data) >= self.capacity:
                self._data.pop(next(iter(self._data)))
            self._data[key] = value

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:  # tests compare against {} after pickling
        if isinstance(other, _LRUPairCache):
            return self._data == other._data
        return self._data == other

    def nbytes(self) -> int:
        """Bytes held by the cached arrays."""
        with self._lock:
            return sum(
                primary.nbytes + (0 if secondary is None else secondary.nbytes)
                for primary, secondary in self._data.values()
            )


def _prefer_in_cell(
    best: tuple[np.ndarray, np.ndarray], stitched: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise lexicographic minimum; ties keep *best* (the in-cell path).

    A primary-only *stitched* (secondary ``None``) yields a primary-only result.
    """
    best_prim, best_sec = best
    cand_prim, cand_sec = stitched
    if cand_sec is None:
        return np.minimum(best_prim, cand_prim), None
    better = (cand_prim < best_prim) | ((cand_prim == best_prim) & (cand_sec < best_sec))
    return np.where(better, cand_prim, best_prim), np.where(better, cand_sec, best_sec)


def _in_cell_matrices(tables: CostTables, kind: str) -> tuple[np.ndarray, np.ndarray]:
    """(primary, secondary) score matrices of one cell's tables for *kind*."""
    if kind == "tau":
        return tables.os_tau, tables.bs_tau
    return tables.bs_sigma, tables.os_sigma


def _cell_border_layout(
    partition: GraphPartition, local_index: np.ndarray
) -> tuple[tuple[np.ndarray, ...], tuple[np.ndarray, ...]]:
    """Per cell: its border nodes as rows of ``border_nodes`` and as local
    ids inside the cell (same order) — fixed by the partition."""
    positions = tuple(
        rows[rows >= 0] for rows in (partition.border_index[nodes] for nodes in partition.cells)
    )
    return positions, tuple(local_index[partition.border_nodes[rows]] for rows in positions)


def _sweep_overlay(
    graph: SpatialKeywordGraph,
    partition: GraphPartition,
    cell_tables: tuple[CostTables, ...],
    local_index: np.ndarray,
    kind: str,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Border-to-border ``(primary, secondary, predecessors)``, all k x k.

    Assembles the overlay **H** of the module docstring for *kind* — per
    cell the border-to-border block of its tables, plus every cut edge at
    its own two weights — and sweeps it from every border node.
    Predecessors are positions in ``border_nodes``, not node ids.
    """
    border = partition.border_nodes
    k = len(border)
    primary = np.full((k, k), np.inf)
    secondary = np.zeros((k, k))
    for tables, rows, locals_ in zip(cell_tables, *_cell_border_layout(partition, local_index)):
        prim_m, sec_m = _in_cell_matrices(tables, kind)
        block = np.ix_(locals_, locals_)
        primary[np.ix_(rows, rows)] = prim_m[block]
        secondary[np.ix_(rows, rows)] = sec_m[block]
    np.fill_diagonal(primary, np.inf)

    indptr, heads, objectives, budgets = graph.to_csr()
    tails = np.repeat(np.arange(graph.num_nodes), np.diff(indptr))
    cut = partition.cell_of[tails] != partition.cell_of[heads]
    cut_tails, cut_heads = partition.border_index[tails[cut]], partition.border_index[heads[cut]]
    if (cut_tails < 0).any() or (cut_heads < 0).any():
        raise PrepError("the partition's border inventory misses an edge that crosses cells")
    prim_w, sec_w = (objectives, budgets) if kind == "tau" else (budgets, objectives)
    primary[cut_tails, cut_heads] = prim_w[cut]
    secondary[cut_tails, cut_heads] = sec_w[cut]

    # An unreachable shortcut is no edge: left out of the CSR weights, and
    # zeroed in the lookup so no ``inf`` can reach the secondary sums.
    is_edge = np.isfinite(primary)
    edge_tails, edge_heads = np.nonzero(is_edge)
    weights = csr_matrix((primary[is_edge], (edge_tails, edge_heads)), shape=(k, k))
    secondary[~is_edge] = 0.0
    return sweep_two_criteria(weights, secondary, np.arange(k))


class _RowReader:
    """The *kind* rows of a :class:`PartitionedCostTables` at fixed *nodes*.

    The query-time half of the row assembly, for a search that reads
    ``row(i)[nodes]`` from many sources ``i``: everything that depends on
    the node set alone is gathered here once — per column the entries
    ``b2`` of the node's cell and ``in_cell(b2 -> node)``, padded to the
    tallest cell with ``inf`` — so a primary read is the source's cached
    border leg plus that slab under one plain ``min`` (the primary of a
    lexicographic minimum), then the in-cell compare for the nodes of
    ``cell(i)``; a secondary is assembled for the one column asked, under
    ``_lex_min``.  Same ``(leg1 + border) + leg3`` association and tie
    rule as ``_rows``: every value is bitwise the one ``*_row(i)[nodes]``
    holds.  Primary rows are memoised per source (bounded like every
    cache here) for the life of the reader, which belongs to one query.
    """

    def __init__(self, tables: "PartitionedCostTables", nodes: np.ndarray, kind: str) -> None:
        nodes = np.asarray(nodes, dtype=np.int64).ravel()
        if len(nodes) and not 0 <= nodes.min() <= nodes.max() < tables.num_nodes:
            raise PrepError(f"node set reaches outside 0..{tables.num_nodes - 1}")
        self._tables = tables
        self._kind = kind
        self._width = len(nodes)
        # An entry is one primary row plus the source's border leg (two
        # k-vectors, pinned even if ``_leg_cache`` drops them).
        self._memo = _LRUPairCache(self._width // 2 + len(tables.partition.border_nodes))
        self._node_cells = node_cells = tables.partition.cell_of[nodes]
        self._node_locals = node_locals = tables.local_index[nodes]
        #: cell -> (columns holding that cell's nodes, their local ids).
        self._cell_columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for cell in np.unique(node_cells).tolist():
            columns = np.flatnonzero(node_cells == cell)
            self._cell_columns[cell] = (columns, node_locals[columns])
        height = max(
            (len(tables._cell_borders[cell]) for cell in self._cell_columns), default=0
        )
        #: Per column: rows of ``border_nodes`` entering the node's cell.
        #: Padding points at row 0 and is silenced by the ``inf`` below it.
        self._entries = np.zeros((height, self._width), dtype=np.int64)
        self._leg3_prim = np.full((height, self._width), np.inf)
        self._leg3_sec = np.full((height, self._width), np.inf)
        for cell, (columns, locals_) in self._cell_columns.items():
            entries = tables._cell_borders[cell]
            if not len(entries):
                continue
            prim_m, sec_m = tables._in_cell(kind, cell)
            block = np.ix_(tables._cell_border_locals[cell], locals_)
            self._entries[: len(entries), columns] = entries[:, None]
            self._leg3_prim[: len(entries), columns] = prim_m[block]
            self._leg3_sec[: len(entries), columns] = sec_m[block]

    def primary(self, i: int) -> np.ndarray:
        """The primary score of row *i* at every node of the set."""
        return self._row(i)[0]

    def secondary_at(self, i: int, position: int) -> float:
        """The secondary score of row *i* at ``nodes[position]``, assembled
        for that one column from the leg :meth:`primary` fetched."""
        leg = self._row(i)[1]
        tables, kind = self._tables, self._kind
        best = (np.inf, np.inf)
        cell = int(tables.partition.cell_of[i])
        if self._node_cells[position] == cell:
            prim_m, sec_m = tables._in_cell(kind, cell)
            at = int(tables.local_index[i]), self._node_locals[position]
            best = (prim_m[at], sec_m[at])
        if leg is not None and len(self._entries):
            entries = self._entries[:, position]
            stitched = _lex_min(
                leg[0][entries] + self._leg3_prim[:, position],
                leg[1][entries] + self._leg3_sec[:, position],
                axis=0,
            )
            if stitched < best:  # lexicographic; a tie keeps the in-cell path
                best = stitched
        return float(best[1])

    def _row(self, i: int) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
        """Row *i*'s primaries at the node set, and the border leg of *i*."""
        cached = self._memo.get(i)
        if cached is not None:
            return cached
        tables, kind = self._tables, self._kind
        leg = tables._leg(i, kind)  # validates i
        best = np.full(self._width, np.inf)
        cell = int(tables.partition.cell_of[i])
        own = self._cell_columns.get(cell)
        if own is not None:
            columns, locals_ = own
            best[columns] = tables._in_cell(kind, cell)[0][int(tables.local_index[i]), locals_]
        if leg is not None and len(self._entries):
            best = np.minimum(best, (leg[0][self._entries] + self._leg3_prim).min(axis=0))
        self._memo.put(i, (best, leg))
        return best, leg


@dataclass
class PartitionedCostTables:
    """Cell-local tables plus border-to-border tables (future work, §6).

    Implements the full access protocol of :class:`CostTables` — scalar
    lookups, ``*_col`` / ``*_row`` views, ``*_cols`` gathers and (with
    ``predecessors=True``) path materialisation.  Assembled scores are
    **exact** (see the module docstring): in-cell whenever the optimal
    path stays inside one cell, stitched through the best border-node
    pair otherwise.  Column, row and border-leg results are cached per
    node — queries hit the same target, and a search the same sources,
    repeatedly — in LRU caches bounded to ``_CACHE_BYTE_BUDGET`` bytes
    each (reported by :meth:`cache_bytes`), so long-lived instances
    amortise assembly cost without ever regrowing an ``O(n^2)`` resident
    footprint.  A structural update builds a new tables object, which is
    what fences every cache to its epoch.
    """

    partition: GraphPartition
    #: Per cell: dense in-cell tables indexed by local position.
    cell_tables: tuple[CostTables, ...]
    #: Local position of each node inside its cell.
    local_index: np.ndarray
    #: Border x border score matrices (exact full-graph scores, swept on
    #: the overlay — see the module docstring).
    border_os_tau: np.ndarray
    border_bs_tau: np.ndarray
    border_os_sigma: np.ndarray
    border_bs_sigma: np.ndarray
    #: Overlay predecessors, k x k positions in ``border_nodes`` (optional).
    border_pred_tau: np.ndarray | None = None
    border_pred_sigma: np.ndarray | None = None
    # Derived state below is not part of ``__init__``, so
    # ``dataclasses.replace`` — how a pool worker folds a repair patch
    # in — always starts from empty caches: the old ones memoise the old
    # tables.
    #: Cached per-target columns (queries hit the same target repeatedly).
    _column_cache: _LRUPairCache = field(init=False, repr=False)
    #: Cached per-source rows (greedy expansion walks one node at a time).
    _row_cache: _LRUPairCache = field(init=False, repr=False)
    #: Cached per-source border legs (see :meth:`_leg`): length k, not n.
    _leg_cache: _LRUPairCache = field(init=False, repr=False)
    #: Per cell: its border nodes as rows of ``border_nodes`` and as local
    #: ids inside the cell (same order), fixed by the partition.
    _cell_borders: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _cell_border_locals: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        part = self.partition
        self._column_cache = _LRUPairCache(self.num_nodes)
        self._row_cache = _LRUPairCache(self.num_nodes)
        self._leg_cache = _LRUPairCache(len(part.border_nodes))
        self._cell_borders, self._cell_border_locals = _cell_border_layout(
            part, self.local_index
        )

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @classmethod
    def from_graph(
        cls,
        graph: SpatialKeywordGraph,
        num_cells: int | None = None,
        seed: int = 0,
        partition: GraphPartition | None = None,
        cell_tables: tuple[CostTables, ...] | None = None,
        predecessors: bool = False,
    ) -> "PartitionedCostTables":
        """Partition *graph* and build all component tables.

        ``num_cells`` defaults to ``sqrt(n) / 2`` — cells of roughly
        ``2 * sqrt(n)`` nodes, the classic space/accuracy sweet spot.
        A pre-computed ``partition`` and per-cell ``cell_tables`` (one
        :class:`CostTables` per cell over its induced subgraph, in cell
        order) can be supplied to share state with an existing sharded
        deployment instead of re-pre-processing every cell.
        ``predecessors=True`` keeps the border tier's ``k x k`` overlay
        predecessors (and requires path-capable cell tables), enabling
        ``tau_path`` / ``sigma_path``.
        """
        n = graph.num_nodes
        if partition is None:
            if num_cells is None:
                num_cells = max(2, int(np.sqrt(n) / 2))
            partition = partition_graph(graph, num_cells, seed=seed)

        local_index = np.zeros(n, dtype=np.int64)
        for nodes in partition.cells:
            local_index[nodes] = np.arange(len(nodes))

        if cell_tables is None:
            built = []
            for nodes in partition.cells:
                subgraph, _mapping = graph.induced_subgraph([int(v) for v in nodes])
                built.append(CostTables.from_graph(subgraph, predecessors=predecessors))
            cell_tables = tuple(built)
        else:
            cell_tables = tuple(cell_tables)
            if len(cell_tables) != partition.num_cells:
                raise PrepError(
                    f"got {len(cell_tables)} cell tables for "
                    f"{partition.num_cells} cells"
                )
            for cell, (nodes, tables) in enumerate(zip(partition.cells, cell_tables)):
                if tables.num_nodes != len(nodes):
                    raise PrepError(
                        f"cell {cell} has {len(nodes)} nodes but its tables "
                        f"cover {tables.num_nodes}"
                    )
                if predecessors and not tables.has_paths:
                    raise PrepError(
                        f"cell {cell} tables lack predecessor matrices; "
                        "path materialisation needs predecessors=True cells"
                    )

        # One sweep of the k-node overlay per criterion; the border tier
        # is the shared term between full rebuilds and incremental repair.
        os_tau, bs_tau, pred_tau = _sweep_overlay(
            graph, partition, cell_tables, local_index, "tau"
        )
        bs_sigma, os_sigma, pred_sigma = _sweep_overlay(
            graph, partition, cell_tables, local_index, "sigma"
        )
        return cls(
            partition=partition,
            cell_tables=cell_tables,
            local_index=local_index,
            border_os_tau=os_tau,
            border_bs_tau=bs_tau,
            border_os_sigma=os_sigma,
            border_bs_sigma=bs_sigma,
            border_pred_tau=pred_tau if predecessors else None,
            border_pred_sigma=pred_sigma if predecessors else None,
        )

    # ------------------------------------------------------------------
    # basic protocol
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes the tables were computed for."""
        return len(self.partition.cell_of)

    @property
    def has_paths(self) -> bool:
        """Whether path materialisation is available."""
        return self.border_pred_tau is not None and all(
            tables.has_paths for tables in self.cell_tables
        )

    def reachable(self, i: int, j: int) -> bool:
        """Whether any path ``i -> j`` exists."""
        return bool(np.isfinite(self.os_tau(i, j)))

    # ------------------------------------------------------------------
    # scalar lookups
    # ------------------------------------------------------------------
    def os_tau(self, i: int, j: int) -> float:
        """Assembled ``OS(tau_{i,j})`` (exact; see module docstring)."""
        return self._pair(i, j, "tau")[0]

    def bs_tau(self, i: int, j: int) -> float:
        """``BS`` of the assembled objective-optimal path."""
        return self._pair(i, j, "tau")[1]

    def os_sigma(self, i: int, j: int) -> float:
        """``OS`` of the assembled budget-optimal path."""
        return self._pair(i, j, "sigma")[1]

    def bs_sigma(self, i: int, j: int) -> float:
        """Assembled ``BS(sigma_{i,j})`` (exact)."""
        return self._pair(i, j, "sigma")[0]

    # ------------------------------------------------------------------
    # column access (protocol shared with CostTables)
    # ------------------------------------------------------------------
    def os_tau_col(self, t: int) -> np.ndarray:
        """Assembled ``OS(tau_{i,t})`` for every ``i``."""
        return self._columns(t, "tau")[0]

    def bs_tau_col(self, t: int) -> np.ndarray:
        """Assembled ``BS`` along tau for every ``i``."""
        return self._columns(t, "tau")[1]

    def os_sigma_col(self, t: int) -> np.ndarray:
        """Assembled ``OS`` along sigma for every ``i``."""
        return self._columns(t, "sigma")[1]

    def bs_sigma_col(self, t: int) -> np.ndarray:
        """Assembled ``BS(sigma_{i,t})`` for every ``i``."""
        return self._columns(t, "sigma", pair=False)[0]

    def os_tau_cols(self, nodes: np.ndarray) -> np.ndarray:
        """``OS(tau_{i,t})`` for every ``i`` and every ``t`` in *nodes*."""
        return self._gather_cols(nodes, "tau")

    def bs_sigma_cols(self, nodes: np.ndarray) -> np.ndarray:
        """``BS(sigma_{i,t})`` for every ``i`` and every ``t`` in *nodes*."""
        return self._gather_cols(nodes, "sigma")

    # ------------------------------------------------------------------
    # row access (protocol shared with CostTables)
    # ------------------------------------------------------------------
    def os_tau_row(self, i: int) -> np.ndarray:
        """Assembled ``OS(tau_{i,j})`` for every ``j``."""
        return self._rows(i, "tau")[0]

    def bs_tau_row(self, i: int) -> np.ndarray:
        """Assembled ``BS`` along tau for every ``j``."""
        return self._rows(i, "tau")[1]

    def os_sigma_row(self, i: int) -> np.ndarray:
        """Assembled ``OS`` along sigma for every ``j``."""
        return self._rows(i, "sigma")[1]

    def bs_sigma_row(self, i: int) -> np.ndarray:
        """Assembled ``BS(sigma_{i,j})`` for every ``j``."""
        return self._rows(i, "sigma")[0]

    def row_reader(self, nodes: np.ndarray, kind: str) -> _RowReader:
        """The ``kind`` (``"tau"`` / ``"sigma"``) rows restricted to *nodes*.

        ``reader.primary(i)`` equals ``os_tau_row(i)[nodes]`` (tau) or
        ``bs_sigma_row(i)[nodes]`` (sigma) bit for bit, at the cost of the
        nodes read instead of all n; the reader is per query, not cached.
        """
        return _RowReader(self, nodes, kind)

    # ------------------------------------------------------------------
    # path materialisation (protocol shared with CostTables)
    # ------------------------------------------------------------------
    def tau_path(self, i: int, j: int) -> list[int]:
        """Materialise the objective-optimal path ``i -> j`` (global ids)."""
        return self._path(int(i), int(j), "tau")

    def sigma_path(self, i: int, j: int) -> list[int]:
        """Materialise the budget-optimal path ``i -> j`` (global ids)."""
        return self._path(int(i), int(j), "sigma")

    # ------------------------------------------------------------------
    # memory accounting (the ablation's headline number)
    # ------------------------------------------------------------------
    def memory_bytes(self, include_paths: bool = False) -> int:
        """Bytes held by every score matrix (cells + border).

        ``include_paths=True`` additionally counts the predecessor
        matrices (cell and border) that path materialisation needs.
        """
        total = 0
        names = ["os_tau", "bs_tau", "os_sigma", "bs_sigma"]
        if include_paths:
            names += ["pred_tau", "pred_sigma"]
        for tables in self.cell_tables:
            for name in names:
                matrix = getattr(tables, name)
                if matrix is not None:
                    total += matrix.nbytes
        border = [
            self.border_os_tau,
            self.border_bs_tau,
            self.border_os_sigma,
            self.border_bs_sigma,
        ]
        if include_paths:
            border += [self.border_pred_tau, self.border_pred_sigma]
        for matrix in border:
            if matrix is not None:
                total += matrix.nbytes
        return total

    def cache_bytes(self) -> int:
        """Bytes currently held by the bounded column/row/leg LRU caches."""
        return (
            self._column_cache.nbytes()
            + self._row_cache.nbytes()
            + self._leg_cache.nbytes()
        )

    @staticmethod
    def flat_memory_bytes(num_nodes: int, dtype_bytes: int = 8) -> int:
        """Bytes a flat :class:`CostTables` needs for the same graph."""
        return 4 * num_nodes * num_nodes * dtype_bytes

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _in_cell(self, kind: str, cell: int) -> tuple[np.ndarray, np.ndarray]:
        """(primary, secondary) in-cell matrices for *kind*."""
        return _in_cell_matrices(self.cell_tables[cell], kind)

    def _border_matrices(self, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """(primary, secondary) border-to-border matrices for *kind*."""
        if kind == "tau":
            return self.border_os_tau, self.border_bs_tau
        return self.border_bs_sigma, self.border_os_sigma

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise PrepError(f"node {node} outside 0..{self.num_nodes - 1}")

    def _pair(self, i: int, j: int, kind: str) -> tuple[float, float]:
        primary, secondary, _combo = self._assemble_pair(int(i), int(j), kind)
        return primary, secondary

    def _assemble_pair(
        self, i: int, j: int, kind: str
    ) -> tuple[float, float, tuple[int, int] | None]:
        """One assembled ``(primary, secondary, decomposition)`` entry.

        The decomposition is ``None`` when the in-cell path wins (or
        nothing is reachable) and ``(b1, b2)`` — global border node ids —
        when the stitched path wins.  Ties prefer the in-cell path, then
        the lexicographically smaller ``(primary, secondary)`` combo.
        The legs associate as ``leg1 + (border + leg3)``: bitwise the
        value ``_columns`` holds, and within an ulp of the one ``_rows``
        and the restricted read hold (they associate the other way).
        """
        self._check_node(i)
        self._check_node(j)
        part = self.partition
        ci, cj = int(part.cell_of[i]), int(part.cell_of[j])
        li, lj = int(self.local_index[i]), int(self.local_index[j])
        best_primary, best_secondary = np.inf, np.inf
        if ci == cj:
            prim_m, sec_m = self._in_cell(kind, ci)
            best_primary = float(prim_m[li, lj])
            best_secondary = float(sec_m[li, lj])
        combo: tuple[int, int] | None = None

        exits = self._cell_borders[ci]
        entries = self._cell_borders[cj]
        if len(exits) and len(entries):
            prim_i, sec_i = self._in_cell(kind, ci)
            prim_j, sec_j = self._in_cell(kind, cj)
            border_prim, border_sec = self._border_matrices(kind)
            # legs: i -> exit (in cell), exit -> entry (border), entry -> j,
            # associated as leg1 + (border + leg3) to match _columns.
            leg1_prim = prim_i[li, self._cell_border_locals[ci]]
            leg1_sec = sec_i[li, self._cell_border_locals[ci]]
            leg3_prim = prim_j[self._cell_border_locals[cj], lj]
            leg3_sec = sec_j[self._cell_border_locals[cj], lj]
            mid_prim_all = border_prim[np.ix_(exits, entries)] + leg3_prim[None, :]
            mid_sec_all = border_sec[np.ix_(exits, entries)] + leg3_sec[None, :]
            mid_prim, mid_sec = _lex_min(mid_prim_all, mid_sec_all, axis=1)
            total_prim = leg1_prim + mid_prim
            total_sec = leg1_sec + mid_sec
            pick = _lex_argmin(total_prim, total_sec)
            cand_prim = float(total_prim[pick])
            cand_sec = float(total_sec[pick])
            if (cand_prim, cand_sec) < (best_primary, best_secondary):
                best_primary, best_secondary = cand_prim, cand_sec
                entry_pick = _lex_argmin(mid_prim_all[pick], mid_sec_all[pick])
                combo = (
                    int(part.border_nodes[exits[pick]]),
                    int(part.border_nodes[entries[entry_pick]]),
                )
        return best_primary, best_secondary, combo

    def _columns(
        self, t: int, kind: str, pair: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Assembled ``(primary, secondary)`` columns for target *t*.

        ``pair=False`` asks for the primary alone: its cache entry holds
        ``None`` for the secondary until a caller wants both, and is then
        replaced in place by the full pair.
        """
        key = (t, kind)
        cached = self._column_cache.get(key)
        if cached is not None and not (pair and cached[1] is None):
            return cached
        self._check_node(t)
        part = self.partition
        n = self.num_nodes
        ct = int(part.cell_of[t])
        lt = int(self.local_index[t])
        prim_col = np.full(n, np.inf)
        sec_col = np.full(n, np.inf) if pair else None

        entries = self._cell_borders[ct]
        have_mid = len(entries) > 0
        if have_mid:
            prim_t, sec_t = self._in_cell(kind, ct)
            entry_locals = self._cell_border_locals[ct]
            border_prim, border_sec = self._border_matrices(kind)
            # mid[b1] = best (border(b1 -> b2) + in-cell(b2 -> t)) over
            # all entries b2 of cell(t): one (k,)-vector for the column.
            mid_prim, mid_sec = _lex_min(
                border_prim[:, entries] + prim_t[entry_locals, lt][None, :],
                border_sec[:, entries] + sec_t[entry_locals, lt][None, :] if pair else None,
                axis=1,
            )

        for cell in range(part.num_cells):
            nodes = part.cells[cell]
            prim_m, sec_m = self._in_cell(kind, cell)
            if cell == ct:
                best = (prim_m[:, lt], sec_m[:, lt])
            else:
                best = (np.full(len(nodes), np.inf), np.full(len(nodes), np.inf))
            exits = self._cell_borders[cell]
            if have_mid and len(exits):
                exit_locals = self._cell_border_locals[cell]
                stitched = _lex_min(
                    prim_m[:, exit_locals] + mid_prim[exits][None, :],
                    sec_m[:, exit_locals] + mid_sec[exits][None, :] if pair else None,
                    axis=1,
                )
                best = _prefer_in_cell(best, stitched)
            prim_col[nodes] = best[0]
            if pair:
                sec_col[nodes] = best[1]

        self._column_cache.put(key, (prim_col, sec_col))
        return prim_col, sec_col

    def _leg(self, i: int, kind: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The border leg of source *i*: ``(primary, secondary)`` k-vectors.

        ``leg[b2]`` is the best ``in_cell(i -> b1) + border(b1 -> b2)``
        over all exits ``b1`` of ``cell(i)`` — everything a row assembly
        needs from its source, at ``2 * 8 * k`` bytes instead of a row's
        ``2 * 8 * n``.  ``None`` when ``cell(i)`` has no border node.
        """
        key = (i, kind)
        cached = self._leg_cache.get(key)
        if cached is not None:
            return cached
        self._check_node(i)
        ci = int(self.partition.cell_of[i])
        exits = self._cell_borders[ci]
        if not len(exits):
            return None
        prim_i, sec_i = self._in_cell(kind, ci)
        li = int(self.local_index[i])
        exit_locals = self._cell_border_locals[ci]
        border_prim, border_sec = self._border_matrices(kind)
        leg = _lex_min(
            prim_i[li, exit_locals][:, None] + border_prim[exits, :],
            sec_i[li, exit_locals][:, None] + border_sec[exits, :],
            axis=0,
        )
        self._leg_cache.put(key, leg)
        return leg

    def _rows(self, i: int, kind: str) -> tuple[np.ndarray, np.ndarray]:
        """Assembled ``(primary, secondary)`` rows for source *i*."""
        key = (i, kind)
        cached = self._row_cache.get(key)
        if cached is not None:
            return cached
        leg = self._leg(i, kind)  # validates i
        part = self.partition
        n = self.num_nodes
        ci = int(part.cell_of[i])
        li = int(self.local_index[i])
        prim_row = np.full(n, np.inf)
        sec_row = np.full(n, np.inf)

        for cell in range(part.num_cells):
            nodes = part.cells[cell]
            prim_m, sec_m = self._in_cell(kind, cell)
            if cell == ci:
                best = (prim_m[li, :], sec_m[li, :])
            else:
                best = (np.full(len(nodes), np.inf), np.full(len(nodes), np.inf))
            entries = self._cell_borders[cell]
            if leg is not None and len(entries):
                entry_locals = self._cell_border_locals[cell]
                stitched = _lex_min(
                    leg[0][entries][:, None] + prim_m[entry_locals, :],
                    leg[1][entries][:, None] + sec_m[entry_locals, :],
                    axis=0,
                )
                best = _prefer_in_cell(best, stitched)
            prim_row[nodes], sec_row[nodes] = best

        self._row_cache.put(key, (prim_row, sec_row))
        return prim_row, sec_row

    def _gather_cols(self, nodes: np.ndarray, kind: str) -> np.ndarray:
        """The primary columns of *kind* at *nodes*, side by side."""
        targets = [int(t) for t in np.asarray(nodes).ravel()]
        if not targets:
            return np.empty((self.num_nodes, 0))
        return np.stack([self._columns(t, kind, pair=False)[0] for t in targets], axis=1)

    def _cell_path(self, cell: int, u: int, v: int, kind: str) -> list[int]:
        """In-cell optimal path ``u -> v`` translated to global ids."""
        tables = self.cell_tables[cell]
        lu, lv = int(self.local_index[u]), int(self.local_index[v])
        local = tables.tau_path(lu, lv) if kind == "tau" else tables.sigma_path(lu, lv)
        to_global = self.partition.cells[cell]
        return [int(to_global[node]) for node in local]

    def _path(self, i: int, j: int, kind: str) -> list[int]:
        if not self.has_paths:
            raise PrepError(
                "tables were built with predecessors=False; "
                "path materialisation is unavailable"
            )
        primary, _secondary, combo = self._assemble_pair(i, j, kind)
        if not np.isfinite(primary):
            raise PrepError(f"node {j} is unreachable from {i}")
        part = self.partition
        if combo is None:
            return self._cell_path(int(part.cell_of[i]), i, j, kind)
        b1, b2 = combo
        first = self._cell_path(int(part.cell_of[i]), i, b1, kind)
        last = self._cell_path(int(part.cell_of[j]), b2, j, kind)
        return first[:-1] + self._border_path(b1, b2, kind) + last[1:]

    def _border_path(self, b1: int, b2: int, kind: str) -> list[int]:
        """The stored border leg ``b1 -> b2`` as a walk of the full graph.

        The leg is a walk on the overlay: a hop inside one cell is a
        shortcut, expanded through that cell's own predecessor matrix; a
        hop between cells is a cut edge and stands for itself.
        """
        part = self.partition
        pred = self.border_pred_tau if kind == "tau" else self.border_pred_sigma
        row1, row2 = int(part.border_index[b1]), int(part.border_index[b2])
        try:
            hops = part.border_nodes[reconstruct_path(pred[row1], row1, row2)].tolist()
        except ValueError as exc:  # pragma: no cover - scores imply reachability
            raise PrepError(str(exc)) from exc
        path = [b1]
        for u, v in zip(hops, hops[1:]):
            cell = int(part.cell_of[u])
            if cell == int(part.cell_of[v]):
                path += self._cell_path(cell, u, v, kind)[1:]
            else:
                path.append(v)
        return path
