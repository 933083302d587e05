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
exact.  :func:`_overlay` builds H as a ``k x k`` weight pair and the one
two-criteria sweep (:func:`repro.prep.dijkstra.sweep_two_criteria`) runs
over it: ``k`` sources on ``k`` nodes instead of on ``n``.  A structural
update sweeps fewer still (:meth:`PartitionedCostTables.repaired`): H's
changed edges are the update's cut edges plus the shortcuts of repaired
cells whose entry moved, and only the border rows those can move are
swept again — bitwise the full sweep, by the distinct-distance licence of
:mod:`repro.prep.dijkstra`.  A border primary is a sum over shortcuts,
each itself a sum over edges, so it can differ from a full-graph sweep's
edge-by-edge sum in its **last ulp**
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
for itself.  That is what lets a :class:`repro.core.engine.KOREngine`
over these tables run every search algorithm over a partitioned graph
with flat-table semantics.

Float addition is not associative, so *which* two legs are summed first
is part of each access path's contract.  Rows and restricted rows
(``_rows``, ``row_reader``) share one exit-side stage, the cached border
leg of the source, and associate ``(leg1 + border) + leg3``; columns
(``_columns``) and the scalar/path lookups (``_assemble_pair``, also
behind the per-node entries ``bs_tau_entries`` / ``os_sigma_entries``)
read one cached entry side per target, ``_mid``, and associate ``leg1 +
(border + leg3)``.
Within a family values are bitwise equal (a restricted read *is*
``row(i)[nodes]``; a scalar lookup *is* ``col(j)[i]``); across families
the same entry can differ in its last ulp.

What the tables cache is per node: a source's row and border leg, a
target's column and ``_mid``, and each cell's contiguous blocks, all
counted by ``cache_bytes``.  A restricted-row reader belongs to its
caller, which builds one per node set (a search: one per query), and
memoises the rows it reads itself.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix

from repro.exceptions import PrepError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.dijkstra import reconstruct_path, repair_two_criteria, sweep_two_criteria
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
    cells stay connected and balanced within a factor ~2.  One cell is
    the whole graph, returned without growth or a cut scan.
    """
    n = graph.num_nodes
    if not 1 <= num_cells <= n:
        raise PrepError(f"num_cells must be in 1..{n}, got {num_cells}")
    if num_cells == 1:
        return GraphPartition(
            cell_of=np.zeros(n, dtype=np.int64),
            cells=(np.arange(n, dtype=np.int64),),
            border_nodes=np.empty(0, dtype=np.int64),
            border_index=np.full(n, -1, dtype=np.int64),
        )
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

    cells = tuple(np.flatnonzero(cell_of == cell).astype(np.int64) for cell in range(num_cells))
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


#: Byte budget per cache (columns, rows, border legs, target mids, and
#: each row reader's memoised rows).  Without a bound a
#: long-lived engine serving varied targets would quietly regrow the very
#: ``O(n^2)`` footprint the partitioned tables exist to eliminate.
_CACHE_BYTE_BUDGET = 2_000_000
#: Entry floor so tiny graphs / huge graphs still keep enough locality
#: for one query's worth of repeated lookups.
_CACHE_MIN_ENTRIES = 16


class _ByteLRU:
    """LRU of ``key -> value`` entries, each charged its bytes.

    ``put`` makes room oldest first while the entries would pass
    :data:`_CACHE_BYTE_BUDGET`, keeping at least :data:`_CACHE_MIN_ENTRIES`
    whatever their size.  Thread workers share one tables object, so every
    compound step runs under a lock; a pickled or copied cache arrives
    empty (caches are derived state, and shipping them would bloat every
    worker pickle with whatever the parent happened to look up).
    """

    def __init__(self) -> None:
        self._data: dict = {}  # key -> (value, nbytes)
        self._bytes = 0
        self._lock = threading.Lock()

    def __reduce__(self):
        return type(self), ()

    def get(self, key):
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is None:
                return None
            # Re-insert to mark recency (dicts preserve insertion order).
            self._data[key] = entry
            return entry[0]

    def put(self, key, value, nbytes: int) -> None:
        with self._lock:
            old = self._data.pop(key, None)
            if old is not None:
                self._bytes -= old[1]
            while (
                self._bytes + nbytes > _CACHE_BYTE_BUDGET
                and len(self._data) >= _CACHE_MIN_ENTRIES
            ):
                self._bytes -= self._data.pop(next(iter(self._data)))[1]
            self._data[key] = (value, nbytes)
            self._bytes += nbytes

    def items(self) -> list[tuple]:
        """``(key, value, nbytes)`` of every entry, least recent first."""
        with self._lock:
            return [(key, value, nbytes) for key, (value, nbytes) in self._data.items()]

    def seed(self, entries) -> None:
        """Fill an empty cache with ``(key, value, nbytes)`` *entries*,
        least recent first, evicting as ``put`` would."""
        with self._lock:
            self._data = {key: (value, nbytes) for key, value, nbytes in entries}
            self._bytes = sum(nbytes for _value, nbytes in self._data.values())
            while self._bytes > _CACHE_BYTE_BUDGET and len(self._data) > _CACHE_MIN_ENTRIES:
                self._bytes -= self._data.pop(next(iter(self._data)))[1]

    def __len__(self) -> int:
        return len(self._data)

    def __eq__(self, other) -> bool:  # tests compare against {} after pickling
        if isinstance(other, _ByteLRU):
            return self._data == other._data
        return self._data == other

    def nbytes(self) -> int:
        """Bytes held by the cached entries."""
        return self._bytes


class _LRUPairCache(_ByteLRU):
    """:class:`_ByteLRU` of ``key -> (primary, secondary)`` array pairs,
    each charged its arrays' bytes (a primary-only entry keeps ``None``
    for its secondary and is charged the primary alone)."""

    def put(self, key, value) -> None:
        primary, secondary = value
        super().put(key, value, primary.nbytes + (0 if secondary is None else secondary.nbytes))


class _Blocks(dict):
    """``(side, kind, cell, secondary) -> array``: the contiguous per-cell
    copies of :meth:`PartitionedCostTables._block`.  At most one per key,
    so bounded by the partition; pickled (and copied) empty."""

    def __reduce__(self):
        return type(self), ()

    def nbytes(self) -> int:
        """Bytes held by the blocks built so far."""
        return sum(block.nbytes for block in list(self.values()))


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


def _overlay(
    graph: SpatialKeywordGraph,
    partition: GraphPartition,
    cell_tables: tuple[CostTables, ...],
    local_index: np.ndarray,
    kind: str,
) -> tuple[csr_matrix, np.ndarray]:
    """The overlay **H** of the module docstring for *kind*, as sweep input.

    Per cell the border-to-border block of its tables, plus every cut
    edge at its own two weights: the primary weights as a k x k CSR and
    the dense secondary lookup of :func:`repro.prep.dijkstra.
    sweep_two_criteria`, whose predecessors are then positions in
    ``border_nodes``, not node ids.
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
    return weights, secondary


def _changed_shortcuts(
    rows: np.ndarray, locals_: np.ndarray, old: CostTables, new: CostTables, kind: str
) -> np.ndarray:
    """``(tail, head)`` overlay positions of one cell's shortcuts whose
    primary or secondary differs bitwise between two of its tables."""
    block = np.ix_(locals_, locals_)
    old_prim, old_sec = _in_cell_matrices(old, kind)
    new_prim, new_sec = _in_cell_matrices(new, kind)
    differs = (old_prim[block] != new_prim[block]) | (old_sec[block] != new_sec[block])
    tails, heads = np.nonzero(differs)
    return np.column_stack((rows[tails], rows[heads]))


class _RowReader:
    """The *kind* rows of a :class:`PartitionedCostTables` at fixed *nodes*.

    The query-time half of the row assembly, for a search that reads
    ``row(i)[nodes]`` from many sources ``i``: everything that depends on
    the node set alone (the *slab*) is gathered once, when the reader is
    built — per column the entries ``b2`` of the node's cell and the
    primary ``in_cell(b2 -> node)``, padded to the tallest cell with
    ``inf`` — so a primary read is the source's cached border leg plus
    that slab under one plain ``min`` (the primary of a lexicographic
    minimum), then the in-cell compare for the nodes of ``cell(i)``.  A
    secondary is assembled for the one column asked, from the in-cell
    secondaries at that column's entries alone, under ``_lex_min``.  Same
    ``(leg1 + border) + leg3`` association and tie rule as ``_rows``: every
    value is bitwise the one ``*_row(i)[nodes]`` holds.  The reader belongs
    to whoever built it (a search builds its own): it memoises the primary
    rows it reads in its own byte-bounded LRU, and the tables keep nothing
    of it.
    """

    def __init__(self, tables: "PartitionedCostTables", nodes: np.ndarray, kind: str) -> None:
        if len(nodes) and not 0 <= nodes.min() <= nodes.max() < tables.num_nodes:
            raise PrepError(f"node set reaches outside 0..{tables.num_nodes - 1}")
        self._tables, self._kind = tables, kind
        self._node_cells = node_cells = tables.partition.cell_of[nodes]
        self._node_locals = node_locals = tables.local_index[nodes]
        self._cell_columns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for cell in np.unique(node_cells).tolist():
            columns = np.flatnonzero(node_cells == cell)
            self._cell_columns[cell] = (columns, node_locals[columns])
        height = max((len(tables._cell_borders[cell]) for cell in self._cell_columns), default=0)
        # Padding points at row 0 and is silenced by the ``inf`` below it.
        self._entries = np.zeros((height, len(nodes)), dtype=np.int64)
        self._leg3_prim = np.full((height, len(nodes)), np.inf)
        for cell, (columns, locals_) in self._cell_columns.items():
            cell_entries = tables._cell_borders[cell]
            if len(cell_entries):
                block = tables._block("entry", kind, cell)
                self._entries[: len(cell_entries), columns] = cell_entries[:, None]
                self._leg3_prim[: len(cell_entries), columns] = block[:, locals_]
        #: source -> its primary row at the node set.
        self._rows = _ByteLRU()

    def primary(self, i: int) -> np.ndarray:
        """The primary score of row *i* at every node of the set."""
        return self._row(i)

    def secondary_at(self, i: int, position: int) -> float:
        """The secondary score of row *i* at ``nodes[position]``, assembled
        for that one column from the source's border leg."""
        tables, kind = self._tables, self._kind
        leg = tables._leg(i, kind)  # validates i
        best = (np.inf, np.inf)
        cell = int(tables.partition.cell_of[i])
        node_cell, node_local = int(self._node_cells[position]), self._node_locals[position]
        if node_cell == cell:
            prim_m, sec_m = tables._in_cell(kind, cell)
            at = int(tables.local_index[i]), node_local
            best = (prim_m[at], sec_m[at])
        entries = tables._cell_borders[node_cell]
        if leg is not None and len(entries):
            stitched = _lex_min(
                leg[0][entries] + tables._block("entry", kind, node_cell)[:, node_local],
                leg[1][entries] + tables._block("entry", kind, node_cell, True)[:, node_local],
                axis=0,
            )
            if stitched < best:  # lexicographic; a tie keeps the in-cell path
                best = stitched
        return float(best[1])

    def _row(self, i: int) -> np.ndarray:
        """Row *i*'s primaries at the node set (memoised in the reader)."""
        cached = self._rows.get(i)
        if cached is not None:
            return cached
        tables = self._tables
        kind = self._kind
        leg = tables._leg(i, kind)  # validates i
        best = np.full(len(self._node_cells), np.inf)
        cell = int(tables.partition.cell_of[i])
        own = self._cell_columns.get(cell)
        if own is not None:
            columns, locals_ = own
            best[columns] = tables._in_cell(kind, cell)[0][int(tables.local_index[i]), locals_]
        if leg is not None and len(self._entries):
            best = np.minimum(best, (leg[0][self._entries] + self._leg3_prim).min(axis=0))
        best.flags.writeable = False  # handed out again on the next read
        self._rows.put(i, best, best.nbytes)
        return best


class _ColumnEntries:
    """The secondary scores of one *kind* column, read one entry at a time.

    ``entries[i]`` is the scalar lookup ``_pair(i, t, kind)[1]`` —
    ``BS(tau_{i,t})`` (tau) or ``OS(sigma_{i,t})`` (sigma), bit for bit
    ``_columns(t, kind)[1][i]`` — made on its first read, for a search
    that reads a handful of entries of a column it never needs whole.
    """

    def __init__(self, tables: "PartitionedCostTables", t: int, kind: str) -> None:
        tables._check_node(t)
        self._tables, self._t, self._kind = tables, t, kind
        self._memo: dict[int, float] = {}

    def __getitem__(self, i: int) -> float:
        value = self._memo.get(i)
        if value is None:
            value = self._memo[i] = self._tables._pair(i, self._t, self._kind)[1]
        return value


@dataclass
class PartitionedCostTables:
    """Cell-local tables plus border-to-border tables (future work, §6).

    Implements the full access protocol of :class:`CostTables` — scalar
    lookups, ``*_col`` / ``*_row`` views, ``*_cols`` gathers and (with
    ``predecessors=True``) path materialisation.  Assembled scores are
    **exact** (see the module docstring): in-cell whenever the optimal
    path stays inside one cell, stitched through the best border-node
    pair otherwise.  Column, row, border-leg and target-mid results are
    cached per node — queries hit the same target, and a search the same
    sources, repeatedly — in LRU caches bounded to
    ``_CACHE_BYTE_BUDGET`` bytes each; each cell's slices of
    the in-cell matrices are copied contiguous once.  All of it
    is reported by :meth:`cache_bytes`, so long-lived instances amortise
    assembly cost without ever regrowing an ``O(n^2)`` resident
    footprint.  A structural update builds a new tables object
    (:meth:`repaired`) whose caches start with the old object's entries
    that the update left valid, and only those
    (:meth:`_seed_caches`).  Built any other way — :meth:`from_graph`,
    unpickled, ``dataclasses.replace`` — the caches start empty.
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
    # Derived state below is not part of ``__init__``, so a copy made
    # with ``dataclasses.replace`` always starts from empty caches: the
    # old ones memoise the old tables.
    #: Cached per-target columns (queries hit the same target repeatedly).
    _column_cache: _LRUPairCache = field(init=False, repr=False)
    #: Cached per-source rows (greedy expansion walks one node at a time).
    _row_cache: _LRUPairCache = field(init=False, repr=False)
    #: Cached per-source border legs (see :meth:`_leg`): length k, not n.
    _leg_cache: _LRUPairCache = field(init=False, repr=False)
    #: Cached per-target ``mid`` vectors (see :meth:`_mid`): length k.
    _mid_cache: _LRUPairCache = field(init=False, repr=False)
    #: Contiguous per-cell copies of in-cell slices (:meth:`_block`).
    _blocks: _Blocks = field(init=False, repr=False)
    #: Per cell: its border nodes as rows of ``border_nodes`` and as local
    #: ids inside the cell (same order), fixed by the partition.
    _cell_borders: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _cell_border_locals: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        part = self.partition
        self._column_cache = _LRUPairCache()
        self._row_cache = _LRUPairCache()
        self._leg_cache = _LRUPairCache()
        self._mid_cache = _LRUPairCache()
        self._blocks = _Blocks()
        self._cell_borders, self._cell_border_locals = _cell_border_layout(part, self.local_index)

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

        # One sweep of the k-node overlay per criterion (``repaired``
        # re-sweeps only the rows an update can move).
        sources = np.arange(len(partition.border_nodes))
        os_tau, bs_tau, pred_tau = sweep_two_criteria(
            *_overlay(graph, partition, cell_tables, local_index, "tau"), sources
        )
        bs_sigma, os_sigma, pred_sigma = sweep_two_criteria(
            *_overlay(graph, partition, cell_tables, local_index, "sigma"), sources
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

    def repaired(
        self,
        graph: SpatialKeywordGraph,
        cell_tables: tuple[CostTables, ...],
        cut_edges: list[tuple[int, int]],
    ) -> tuple["PartitionedCostTables", tuple[int, int]]:
        """These tables after an edge change, the border tier repaired.

        *graph* is the graph after the change, *cell_tables* the cells'
        tables over it (a cell the change left alone keeps its object) and
        *cut_edges* the change's set or dropped edges between cells.  The
        overlay's changed edges are those cut edges plus every shortcut
        of a replaced cell whose entry moved; only the border rows they
        can move are swept again (:func:`repro.prep.dijkstra.
        repair_two_criteria`), so the result is bitwise
        ``from_graph(graph, partition=..., cell_tables=cell_tables,
        predecessors=True)``, with these tables' cache entries that are
        still valid carried over (:meth:`_seed_caches`).  Returned with
        the number of overlay rows swept per kind, ``(tau, sigma)``.
        Needs the overlay predecessors.
        """
        if not self.has_paths:
            raise PrepError("repairing the border tier needs its overlay predecessors")
        part = self.partition
        cuts = part.border_index[np.asarray(cut_edges, dtype=np.int64).reshape(-1, 2)]
        if (cuts < 0).any():
            raise PrepError("the partition's border inventory misses an edge that crosses cells")
        border, swept = {}, []
        for kind, names in (
            ("tau", ("border_os_tau", "border_bs_tau", "border_pred_tau")),
            ("sigma", ("border_bs_sigma", "border_os_sigma", "border_pred_sigma")),
        ):
            changed = [cuts] + [
                _changed_shortcuts(rows, locals_, old, new, kind)
                for rows, locals_, old, new in zip(
                    self._cell_borders, self._cell_border_locals, self.cell_tables, cell_tables
                )
                if new is not old
            ]
            *arrays, rows = repair_two_criteria(
                tuple(getattr(self, name) for name in names),
                *_overlay(graph, part, cell_tables, self.local_index, kind),
                np.concatenate(changed),
            )
            border.update(zip(names, arrays))
            swept.append(len(rows))
        tables = type(self)(
            partition=part, cell_tables=tuple(cell_tables), local_index=self.local_index, **border
        )
        tables._seed_caches(self)
        return tables, tuple(swept)

    def _seed_caches(self, old: "PartitionedCostTables") -> None:
        """Seed these repaired tables' derived caches with the entries of
        *old*'s whose inputs the repair left bitwise unchanged; the rest
        is dropped and built again on its next read.

        Validity is decided per cell and kind, never per entry, from one
        bitwise compare of the old and new border matrices:
        - a block survives with its cell;
        - a source's leg with its cell, unless a border entry moved in
          one of that cell's exit rows;
        - a target's mid with its cell, unless one moved in a column at
          that cell's entries;
        - a row with its source's leg and a column with its target's mid,
          only when no cell was replaced (they read every cell's in-cell
          tables).
        Entries keep their recency order and their bytes.
        """
        cell_of = self.partition.cell_of.tolist()
        kept = [new is prev for new, prev in zip(self.cell_tables, old.cell_tables)]
        legs, mids = {}, {}
        for kind in ("tau", "sigma"):
            (old_prim, old_sec), (new_prim, new_sec) = (
                old._border_matrices(kind),
                self._border_matrices(kind),
            )
            moved = (old_prim != new_prim) | (old_sec != new_sec)
            legs[kind] = [
                same and not moved[borders].any()
                for same, borders in zip(kept, self._cell_borders)
            ]
            mids[kind] = [
                same and not moved[:, borders].any()
                for same, borders in zip(kept, self._cell_borders)
            ]

        # Thread workers may still be first-touching blocks of *old*:
        # snapshot the dict before filtering it.
        blocks = list(old._blocks.items())
        self._blocks.update((key, block) for key, block in blocks if kept[key[2]])
        whole = all(kept)
        carried = [(self._leg_cache, old._leg_cache, legs), (self._mid_cache, old._mid_cache, mids)]
        if whole:
            carried += [
                (self._row_cache, old._row_cache, legs),
                (self._column_cache, old._column_cache, mids),
            ]
        for cache, old_cache, valid in carried:
            cache.seed(
                ((node, kind), value, nbytes)
                for (node, kind), value, nbytes in old_cache.items()
                if valid[kind][cell_of[node]]
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
        return self._columns(t, "tau", pair=False)[0]

    def bs_tau_col(self, t: int) -> np.ndarray:
        """Assembled ``BS`` along tau for every ``i``."""
        return self._columns(t, "tau")[1]

    def os_sigma_col(self, t: int) -> np.ndarray:
        """Assembled ``OS`` along sigma for every ``i``."""
        return self._columns(t, "sigma")[1]

    def bs_sigma_col(self, t: int) -> np.ndarray:
        """Assembled ``BS(sigma_{i,t})`` for every ``i``."""
        return self._columns(t, "sigma", pair=False)[0]

    def bs_tau_entries(self, t: int) -> _ColumnEntries:
        """``BS(tau_{i,t})`` read per node: ``entries[i] == bs_tau_col(t)[i]``
        bit for bit, each entry assembled on its first read."""
        return _ColumnEntries(self, t, "tau")

    def os_sigma_entries(self, t: int) -> _ColumnEntries:
        """``OS(sigma_{i,t})`` read per node: ``entries[i] == os_sigma_col(t)[i]``
        bit for bit, each entry assembled on its first read."""
        return _ColumnEntries(self, t, "sigma")

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
        nodes read instead of all n.  The reader gathers its node set's
        slab when built and memoises the rows it reads itself, within
        ``_CACHE_BYTE_BUDGET``; it is the caller's, and nothing of it is
        cached in (or counted by) these tables.
        """
        return _RowReader(self, np.asarray(nodes, dtype=np.int64).ravel(), kind)

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
        """Bytes currently held by the derived state: the bounded column,
        row, leg and mid caches, and the per-cell blocks."""
        return (
            self._column_cache.nbytes()
            + self._row_cache.nbytes()
            + self._leg_cache.nbytes()
            + self._mid_cache.nbytes()
            + self._blocks.nbytes()
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

    def _block(self, side: str, kind: str, cell: int, secondary: bool = False) -> np.ndarray:
        """One cell's slice of a *kind* in-cell matrix as a contiguous copy,
        built on first use so the reads below slice it instead of gathering.

        ``"entry"``: the rows at the cell's border nodes (``|borders| x
        n_c``, paths leaving an entry); ``"exit"``: the columns at them,
        transposed (``|borders| x n_c``, paths reaching an exit).  The
        primary matrix, or with *secondary* the other one.  (The border
        matrices' rows are gathered per leg instead: a per-cell copy of
        them duplicated the ``k x k`` tier and measured no faster.)
        """
        key = (side, kind, cell, secondary)
        block = self._blocks.get(key)
        if block is None:
            matrix = self._in_cell(kind, cell)[secondary]
            locals_ = self._cell_border_locals[cell]
            block = matrix[locals_] if side == "entry" else matrix[:, locals_].T.copy()
            block = self._blocks.setdefault(key, block)
        return block

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
        The entry side is the target's cached :meth:`_mid`, the one
        ``_columns`` reads, so the legs associate as ``leg1 + (border +
        leg3)``: bitwise the value ``_columns`` holds, and within an ulp of
        the one ``_rows`` and the restricted read hold (they associate the
        other way).
        """
        self._check_node(i)
        self._check_node(j)
        part = self.partition
        ci, cj = int(part.cell_of[i]), int(part.cell_of[j])
        li = int(self.local_index[i])
        prim_i, sec_i = self._in_cell(kind, ci)
        best_primary, best_secondary = np.inf, np.inf
        if ci == cj:
            lj = int(self.local_index[j])
            best_primary, best_secondary = float(prim_i[li, lj]), float(sec_i[li, lj])
        combo: tuple[int, int] | None = None

        exits = self._cell_borders[ci]
        mid = self._mid(j, kind) if len(exits) else None
        if mid is not None:
            # legs: i -> exit (in cell), then the target's cached entry
            # side, associated as leg1 + (border + leg3) to match _columns.
            exit_locals = self._cell_border_locals[ci]
            total_prim = prim_i[li, exit_locals] + mid[0][exits]
            total_sec = sec_i[li, exit_locals] + mid[1][exits]
            pick = _lex_argmin(total_prim, total_sec)
            cand_prim = float(total_prim[pick])
            cand_sec = float(total_sec[pick])
            if (cand_prim, cand_sec) < (best_primary, best_secondary):
                best_primary, best_secondary = cand_prim, cand_sec
                combo = self._decomposition(int(exits[pick]), j, kind)
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
        mid = self._mid(t, kind, pair)

        for cell in range(part.num_cells):
            nodes = part.cells[cell]
            prim_m, sec_m = self._in_cell(kind, cell)
            if cell == ct:
                best = (prim_m[:, lt], sec_m[:, lt])
            else:
                best = (np.full(len(nodes), np.inf), np.full(len(nodes), np.inf))
            exits = self._cell_borders[cell]
            if mid is not None and len(exits):
                exit_sec = self._block("exit", kind, cell, True) if pair else None
                stitched = _lex_min(
                    self._block("exit", kind, cell) + mid[0][exits][:, None],
                    exit_sec + mid[1][exits][:, None] if pair else None,
                    axis=0,
                )
                best = _prefer_in_cell(best, stitched)
            prim_col[nodes] = best[0]
            if pair:
                sec_col[nodes] = best[1]

        self._column_cache.put(key, (prim_col, sec_col))
        return prim_col, sec_col

    def _mid(
        self, t: int, kind: str, pair: bool = True
    ) -> tuple[np.ndarray, np.ndarray | None] | None:
        """The entry side of target *t*'s column: ``(primary, secondary)``
        k-vectors, ``mid[b1]`` the best ``border(b1 -> b2) + in_cell(b2 ->
        t)`` over all entries ``b2`` of ``cell(t)``.  ``None`` when
        ``cell(t)`` has no border node; ``pair=False`` as in :meth:`_columns`.
        """
        key = (t, kind)
        cached = self._mid_cache.get(key)
        if cached is not None and not (pair and cached[1] is None):
            return cached
        ct = int(self.partition.cell_of[t])
        entries = self._cell_borders[ct]
        if not len(entries):
            return None
        lt = int(self.local_index[t])
        border_prim, border_sec = self._border_matrices(kind)
        leg3_prim = self._block("entry", kind, ct)[:, lt]
        leg3_sec = self._block("entry", kind, ct, True)[:, lt] if pair else None
        mid = _lex_min(
            border_prim[:, entries] + leg3_prim[None, :],
            border_sec[:, entries] + leg3_sec[None, :] if pair else None,
            axis=1,
        )
        self._mid_cache.put(key, mid)
        return mid

    def _decomposition(self, exit_row: int, j: int, kind: str) -> tuple[int, int]:
        """``(b1, b2)`` of the stitched pair that leaves through border row
        *exit_row* for target *j*: the entry ``b2`` whose ``border + leg3``
        is ``_mid(j, kind)[exit_row]``, ties to the smaller secondary."""
        cj = int(self.partition.cell_of[j])
        lj = int(self.local_index[j])
        entries = self._cell_borders[cj]
        border_prim, border_sec = self._border_matrices(kind)
        pick = _lex_argmin(
            border_prim[exit_row, entries] + self._block("entry", kind, cj)[:, lj],
            border_sec[exit_row, entries] + self._block("entry", kind, cj, True)[:, lj],
        )
        nodes = self.partition.border_nodes
        return int(nodes[exit_row]), int(nodes[entries[pick]])

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
            prim_i[li][exit_locals][:, None] + border_prim[exits],
            sec_i[li][exit_locals][:, None] + border_sec[exits],
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
                stitched = _lex_min(
                    leg[0][entries][:, None] + self._block("entry", kind, cell),
                    leg[1][entries][:, None] + self._block("entry", kind, cell, True),
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
