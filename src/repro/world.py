"""``MutableWorld`` — a dynamic graph plus incrementally repaired tables.

Every table in this reproduction is build-once (cell cost tables, border
tables, inverted indexes), but a production router sees traffic shifts
and closures.  This module wraps the whole pre-processed state — graph,
partition, per-cell :class:`~repro.prep.tables.CostTables`, the
partitioned border tier and the full-graph inverted index — behind
one update call, :meth:`MutableWorld.apply_ops` (a batch of the ops
:meth:`~repro.graph.mutation.GraphMutator.apply_ops` validates), and
performs **incremental repair**: the partition is the unit of repair, so
a change confined to cell ``C`` repairs only ``C``'s tables plus the
border tier, never the other cells — and within those, only the source
rows the change can move.

What each operation actually invalidates:

=====================  ==========================================================
edge change in cell C  C's tables + the border tier (the index untouched)
cross-cell edge        the border tier only (no cell contains the edge)
keyword change at v    v's cell's subgraph and the full index —
                       **no** cost table anywhere (costs ignore keywords)
close/open node v      both of the above (edges and keywords change together)
=====================  ==========================================================

A repaired table re-sweeps a source row only when a changed edge is in
its stored tree, when the edge's new weight ties or beats a stored
distance, or when the row holds two nodes at a bitwise-equal distance;
every other row is copied (:func:`repro.prep.dijkstra.
repair_two_criteria`).  The result is bitwise a rebuild — scores,
secondaries and predecessors — with no tie rule.  The border tier is
repaired the same way on the **overlay** of :mod:`repro.prep.partition`,
not on the graph: ``k`` sources over the ``k`` border nodes, whose edges
are the cut edges plus each cell's border-to-border shortcut block, read
straight from the cell tables (the repaired cell's fresh ones, every
other cell's resident ones); its changed edges are the delta's cut edges
and the repaired cells' shortcuts whose entry moved.  Border scores are
exact; a leg's last ulp and its secondary under a primary tie follow the
overlay (see that module's docstring).  What an update pays is therefore
what it changed: the named rows of the graph and of the touched cells'
subgraphs (each cell's read from the new graph, every other row shared),
the swept rows of the repaired cells' tables and of the overlay
(``WorldUpdate.swept_rows``) — never the other cells' tables, the
untouched adjacency rows or an n-node Dijkstra per border node
(``tests/graph/test_mutation.py::TestRepairLocality`` pins which tables
and rows a repair sweeps; the ``sharded_mutating`` rows
``world.update_p50_ms`` / ``world.rebuild_ms`` of ``benchmarks/e2e`` and
the README's "What an update costs" show the gap).

The **frozen-partition invariant** makes all of this sound: mutations
never add nodes or novel edges (closures drop base edges, re-opens
restore them), so the node-to-cell assignment, the cell node sets, the
local/global id mappings and the border-node inventory computed over the
base graph stay valid for the life of the world.

Epochs count applied updates, starting at 0 for the freshly built world.
The serving layer maps world epochs onto cache invalidation — see
:meth:`repro.service.base.RoutedService.apply_ops`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.graph.digraph import SpatialKeywordGraph
from repro.graph.mutation import GraphDelta, GraphMutator
from repro.index.inverted import InvertedIndex
from repro.prep.partition import (
    GraphPartition,
    PartitionedCostTables,
    partition_graph,
)
from repro.prep.tables import CostTables

__all__ = ["CellState", "MutableWorld", "WorldUpdate", "default_num_cells"]


def default_num_cells(num_nodes: int) -> int:
    """Default granularity: ``~sqrt(n)/2`` cells of ``~2*sqrt(n)`` nodes."""
    return max(1, min(num_nodes, max(2, int(math.sqrt(num_nodes) / 2))))


@dataclass(frozen=True)
class CellState:
    """One cell's pre-processed serving state.

    ``to_global[local_id] == global_id``; ``to_local`` is the inverse.
    ``subgraph``/``tables`` are rebuilt (only) when a repair touches this
    cell — compare object identities across updates to see what a repair
    actually recomputed.
    """

    cell: int
    subgraph: SpatialKeywordGraph
    to_local: dict[int, int]
    to_global: np.ndarray
    tables: CostTables


def _whole_cell(graph: SpatialKeywordGraph, tables) -> CellState:
    """The one cell of a one-cell world: the graph itself, identity ids."""
    n = graph.num_nodes
    return CellState(
        cell=0,
        subgraph=graph,
        to_local={v: v for v in range(n)},
        to_global=np.arange(n, dtype=np.int64),
        tables=tables,
    )


@dataclass(frozen=True)
class WorldUpdate:
    """What one applied delta changed (the repair receipt).

    ``repaired_cells`` lists cells whose *cost tables* were rebuilt;
    ``refreshed_cells`` lists cells whose subgraph was refreshed for any
    reason — always a superset of
    ``repaired_cells``.  ``border_rebuilt`` / ``index_rebuilt`` flag the
    border tier and the full-graph inverted index.  ``swept_rows`` maps
    each kind (``"tau"``, ``"sigma"``) to the source rows the repair
    swept again: ``(cell rows, summed over the repaired cells, overlay
    rows)``; every other row was copied.  The serving layer turns this
    receipt into a patch of the replaced parts for its execution
    backend.
    """

    epoch: int
    repaired_cells: tuple[int, ...]
    refreshed_cells: tuple[int, ...]
    border_rebuilt: bool
    index_rebuilt: bool
    swept_rows: Mapping[str, tuple[int, int]]


class MutableWorld:
    """Graph + partitioned tables + index with incremental repair.

    Parameters
    ----------
    graph:
        The base spatial-keyword graph.
    num_cells:
        Partition granularity (default :func:`default_num_cells`);
        ignored when ``partition`` is given.  One cell is the graph
        itself, in its own ids (no subgraph copy): the flat service's
        world (see :meth:`from_engine`).
    seed:
        Partition seed (farthest-point sampling is randomised).
    partition:
        A pre-computed partition to adopt — the full-rebuild oracle uses
        this to rebuild a mutated world over the *same* cells (see
        :meth:`rebuilt`).
    """

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        num_cells: int | None = None,
        seed: int = 0,
        partition: GraphPartition | None = None,
    ) -> None:
        if partition is None:
            if num_cells is None:
                num_cells = default_num_cells(graph.num_nodes)
            partition = partition_graph(graph, num_cells, seed=seed)
        self._partition = partition
        self._mutator = GraphMutator(graph)
        self._epoch = 0
        self._index = InvertedIndex.from_graph(graph)
        self._install(
            *(self._build_cell(cell, nodes) for cell, nodes in enumerate(partition.cells))
        )

    @classmethod
    def from_engine(cls, engine) -> "MutableWorld":
        """A one-cell world over *engine*'s graph, adopting its tables and
        index as they are: nothing is pre-processed again — unless the
        tables were built with ``predecessors=False``.  Row repair walks
        the stored shortest-path trees, so the cell then gets tables of
        its own that have them."""
        graph, tables = engine.graph, engine.tables
        if not tables.has_paths:
            tables = CostTables.from_graph(graph, predecessors=True)
        world = cls.__new__(cls)
        world._partition = partition_graph(graph, 1)
        world._mutator = GraphMutator(graph)
        world._epoch = 0
        world._index = engine.index
        world._install(_whole_cell(graph, tables))
        return world

    def _install(self, *cells: CellState) -> None:
        self._cells = cells
        self._tables = PartitionedCostTables.from_graph(
            self.graph,
            partition=self._partition,
            cell_tables=tuple(state.tables for state in cells),
            predecessors=True,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SpatialKeywordGraph:
        """The current (latest-update-applied) graph."""
        return self._mutator.graph

    @property
    def partition(self) -> GraphPartition:
        """The frozen node-to-cell assignment (the unit of repair)."""
        return self._partition

    @property
    def cells(self) -> tuple[CellState, ...]:
        """Per-cell serving state, in cell order."""
        return self._cells

    @property
    def num_cells(self) -> int:
        """Number of partition cells."""
        return len(self._cells)

    @property
    def tables(self) -> PartitionedCostTables:
        """The cross-cell tier: cell tables + border-to-border tables."""
        return self._tables

    @property
    def index(self) -> InvertedIndex:
        """The full-graph inverted index."""
        return self._index

    @property
    def epoch(self) -> int:
        """Number of updates applied since construction."""
        return self._epoch

    @property
    def closed_nodes(self) -> frozenset[int]:
        """Nodes currently closed."""
        return self._mutator.closed_nodes

    def rebuilt(self) -> "MutableWorld":
        """A from-scratch world over the current graph and same partition.

        This is the differential oracle's baseline: every table and
        index rebuilt with zero reuse, over exactly the topology the
        incremental repairs produced.  (Closure history is not carried
        over — the rebuilt world sees closed nodes as plain isolated
        nodes, which is all the tables ever see either.)
        """
        return MutableWorld(self.graph, partition=self._partition)

    # ------------------------------------------------------------------
    # mutation API
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> WorldUpdate:
        """Apply a batch of wire-shaped operations as **one** update.

        The ops apply sequentially (each validated against its
        predecessors' effects) but repair runs once over everything they
        changed — one epoch bump, one border-tier recompute, however many
        ops arrived.  An empty batch, or one with a refused op, raises
        and changes nothing: graph, closure set, tables and epoch stay
        as they were.
        """
        return self._apply(self._mutator.apply_ops(ops))

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def _build_cell(self, cell: int, nodes: np.ndarray) -> CellState:
        graph = self.graph
        if self._partition.num_cells == 1:
            return _whole_cell(graph, CostTables.from_graph(graph, predecessors=True))
        subgraph, to_local = graph.induced_subgraph([int(v) for v in nodes])
        return CellState(
            cell=cell,
            subgraph=subgraph,
            to_local=to_local,
            to_global=np.array(sorted(to_local), dtype=np.int64),
            tables=CostTables.from_graph(subgraph, predecessors=True),
        )

    def _apply(self, delta: GraphDelta) -> WorldUpdate:
        # The mutator already advanced self.graph; classify the damage.
        cell_of = self._partition.cell_of
        in_cell: dict[int, list[tuple[int, int]]] = {}  # cells whose cost tables are stale
        cut_edges: list[tuple[int, int]] = []  # the delta's edges between cells
        for u, v in delta.edges:
            if int(cell_of[u]) == int(cell_of[v]):
                in_cell.setdefault(int(cell_of[u]), []).append((u, v))
            else:
                cut_edges.append((u, v))
        relabelled: dict[int, list[int]] = {}  # cells whose keyword sets are stale
        for node, _words in delta.keywords:
            relabelled.setdefault(int(cell_of[node]), []).append(node)
        refresh = set(in_cell) | set(relabelled)  # cells whose subgraph is stale

        graph = self.graph
        cells = list(self._cells)
        cell_rows = [0, 0]
        for cell in sorted(refresh):
            old = cells[cell]
            edges = in_cell.get(cell, [])
            nodes = relabelled.get(cell, [])
            if len(cells) == 1:
                # The one cell is the graph itself, in its own ids.
                subgraph, local_edges = graph, edges
            else:
                # The new graph's rows of the touched tails and keyword
                # sets of the relabelled nodes, restricted to the cell and
                # in local ids: row for row what the new graph induces.
                to_local = old.to_local
                rows = {
                    to_local[u]: [
                        (to_local[v], obj, bud)
                        for v, obj, bud in graph.out_edges(u)
                        if v in to_local
                    ]
                    for u in {u for u, _v in edges}
                }
                subgraph = old.subgraph.with_rows(
                    rows, {to_local[node]: graph.node_keywords(node) for node in nodes}
                )
                local_edges = [(to_local[u], to_local[v]) for u, v in edges]
            # Edges unchanged -> the old tables still describe the new
            # subgraph (same nodes, same edges); otherwise only the rows
            # the changed edges can move are swept again.
            tables = old.tables
            if edges:
                tables, rows_swept = old.tables.repaired(subgraph, local_edges)
                cell_rows = [total + count for total, count in zip(cell_rows, rows_swept)]
            cells[cell] = CellState(
                cell=cell,
                subgraph=subgraph,
                to_local=old.to_local,
                to_global=old.to_global,
                tables=tables,
            )
        self._cells = tuple(cells)

        border_rebuilt = bool(delta.edges)
        overlay_rows = (0, 0)
        if border_rebuilt:
            # Any edge change can reroute a border-to-border leg: the tier
            # is repaired on the k-node overlay, whose shortcut blocks are
            # read from *reused* cell tables for every cell outside the
            # repair set, re-sweeping the border rows a changed cut edge
            # or shortcut can move.
            self._tables, overlay_rows = self._tables.repaired(
                graph, tuple(state.tables for state in self._cells), cut_edges
            )

        index_rebuilt = bool(delta.keywords)
        if index_rebuilt:
            self._index = InvertedIndex.from_graph(graph)

        self._epoch += 1
        return WorldUpdate(
            epoch=self._epoch,
            repaired_cells=tuple(sorted(in_cell)),
            refreshed_cells=tuple(sorted(refresh)),
            border_rebuilt=border_rebuilt,
            index_rebuilt=index_rebuilt,
            swept_rows={
                kind: (cell, overlay)
                for kind, cell, overlay in zip(("tau", "sigma"), cell_rows, overlay_rows)
            },
        )
