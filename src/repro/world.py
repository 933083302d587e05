"""``MutableWorld`` — a dynamic graph plus incrementally repaired tables.

Every table in this reproduction is build-once (cell cost tables, border
tables, inverted indexes), but a production router sees traffic shifts
and closures.  This module wraps the whole pre-processed state — graph,
partition, per-cell :class:`~repro.prep.tables.CostTables` and indexes,
the partitioned border tier and the full-graph inverted index — behind
the mutation API of :class:`~repro.graph.mutation.GraphMutator` and
performs **incremental repair**: the partition is the unit of repair, so
a change confined to cell ``C`` repairs only ``C``'s tables plus the
border tier, never the other cells — and within those, only the source
rows the change can move.

What each operation actually invalidates:

=====================  ==========================================================
edge change in cell C  C's tables + the border tier (cell indexes untouched)
cross-cell edge        the border tier only (no cell contains the edge)
keyword change at v    v's cell's subgraph + index, and the full index —
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
subgraphs (both derived copy-on-write from the delta —
:func:`repro.graph.mutation.apply_graph_delta`), the swept rows of the
repaired cells' tables and of the overlay (``WorldUpdate.swept_rows``) —
never the other cells' tables, the untouched adjacency rows or an n-node
Dijkstra per border node (``tests/graph/test_mutation.py::
TestRepairLocality`` pins which tables and rows a repair sweeps; the
``sharded_mutating`` rows ``world.update_p50_ms`` / ``world.rebuild_ms``
of ``benchmarks/e2e`` and the README's "What an update costs" show the
gap).

The **frozen-partition invariant** makes all of this sound: mutations
never add nodes or novel edges (closures drop base edges, re-opens
restore them), so the node-to-cell assignment, the cell node sets, the
local/global id mappings and the border-node inventory computed over the
base graph stay valid for the life of the world.

Epochs count applied updates, starting at 0 for the freshly built world.
The serving layer maps world epochs onto cache invalidation — see
:meth:`repro.service.sharding.ShardedQueryService.apply_ops`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.graph.digraph import SpatialKeywordGraph
from repro.graph.mutation import (
    GraphDelta,
    GraphMutator,
    apply_graph_delta,
    resolve_ops,
)
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
    ``subgraph``/``tables``/``index`` are rebuilt (only) when a repair
    touches this cell — compare object identities across updates to see
    what a repair actually recomputed.
    """

    cell: int
    subgraph: SpatialKeywordGraph
    to_local: dict[int, int]
    to_global: np.ndarray
    tables: CostTables
    index: InvertedIndex


@dataclass(frozen=True)
class WorldUpdate:
    """What one applied delta changed (the repair receipt).

    ``repaired_cells`` lists cells whose *cost tables* were rebuilt;
    ``refreshed_cells`` lists cells whose subgraph (and possibly index)
    was refreshed for any reason — always a superset of
    ``repaired_cells``.  ``border_rebuilt`` / ``index_rebuilt`` flag the
    border tier and the full-graph inverted index.  ``swept_rows`` maps
    each kind (``"tau"``, ``"sigma"``) to the source rows the repair
    swept again: ``(cell rows, summed over the repaired cells, overlay
    rows)``; every other row was copied.  The serving layer turns this
    receipt into minimal per-shard patches for its execution backend.
    """

    epoch: int
    delta: GraphDelta
    repaired_cells: tuple[int, ...]
    refreshed_cells: tuple[int, ...]
    border_rebuilt: bool
    index_rebuilt: bool
    swept_rows: Mapping[str, tuple[int, int]]


class MutableWorld:
    """Graph + partitioned tables + indexes with incremental repair.

    Parameters
    ----------
    graph:
        The base spatial-keyword graph.
    num_cells:
        Partition granularity (default :func:`default_num_cells`);
        ignored when ``partition`` is given.
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
        self._cells = tuple(
            self._build_cell(cell, nodes) for cell, nodes in enumerate(partition.cells)
        )
        self._tables = PartitionedCostTables.from_graph(
            graph,
            partition=partition,
            cell_tables=tuple(state.tables for state in self._cells),
            predecessors=True,
        )
        # With one cell the subgraph is the whole graph: its index
        # already covers everything, so the full index is shared rather
        # than built twice (mirroring the sharded service's historical
        # single-cell behaviour).
        self._index = (
            self._cells[0].index
            if len(self._cells) == 1
            else InvertedIndex.from_graph(graph)
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
    def update_edge_cost(
        self,
        u: int,
        v: int,
        objective: float | None = None,
        budget: float | None = None,
    ) -> WorldUpdate:
        """Re-cost edge ``(u, v)`` and repair the affected tables."""
        return self._apply(
            self._mutator.update_edge_cost(u, v, objective=objective, budget=budget)
        )

    def close_node(self, node: int) -> WorldUpdate:
        """Take *node* out of service (edges and keywords stripped)."""
        return self._apply(self._mutator.close_node(node))

    def open_node(self, node: int) -> WorldUpdate:
        """Restore a closed node's latest edges and keywords."""
        return self._apply(self._mutator.open_node(node))

    def update_keywords(self, node: int, keywords: Iterable[str]) -> WorldUpdate:
        """Replace *node*'s keyword set and refresh the indexes."""
        return self._apply(self._mutator.update_keywords(node, keywords))

    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> WorldUpdate:
        """Apply a batch of wire-shaped operations as **one** update.

        The ops resolve sequentially (each validated against its
        predecessors' effects) but repair runs once over the merged
        delta — one epoch bump, one border-tier recompute, however many
        ops arrived.  A batch with a refused op raises and changes
        nothing: graph, closure set, tables and epoch stay as they were.
        """
        return self._apply(resolve_ops(self._mutator, ops))

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def _build_cell(self, cell: int, nodes: np.ndarray) -> CellState:
        graph = self.graph
        subgraph, to_local = graph.induced_subgraph([int(v) for v in nodes])
        return CellState(
            cell=cell,
            subgraph=subgraph,
            to_local=to_local,
            to_global=np.array(sorted(to_local), dtype=np.int64),
            tables=CostTables.from_graph(subgraph, predecessors=True),
            index=InvertedIndex.from_graph(subgraph),
        )

    def _apply(self, delta: GraphDelta) -> WorldUpdate:
        # The mutator already advanced self.graph; classify the damage.
        cell_of = self._partition.cell_of
        repair: set[int] = set()  # cells whose cost tables are stale
        refresh: set[int] = set()  # cells whose subgraph/index are stale
        cut_edges: list[tuple[int, int]] = []  # the delta's edges between cells
        for u, v in delta.edges():
            if int(cell_of[u]) == int(cell_of[v]):
                repair.add(int(cell_of[u]))
            else:
                cut_edges.append((u, v))
        for node, _words in delta.set_keywords:
            refresh.add(int(cell_of[node]))
        refresh |= repair

        graph = self.graph
        cells = list(self._cells)
        cell_rows = [0, 0]
        for cell in sorted(refresh):
            old = cells[cell]
            # The delta's in-cell slice, in local ids, applied to the old
            # subgraph: row for row the subgraph the new graph induces
            # (same adjacency order, by apply_graph_delta's own contract).
            local = delta.induced(old.to_local)
            subgraph = apply_graph_delta(old.subgraph, local)
            # Edges unchanged -> the old tables still describe the new
            # subgraph (same nodes, same edges); otherwise only the rows
            # the changed edges can move are swept again.
            tables = old.tables
            if cell in repair:
                tables, rows = old.tables.repaired(subgraph, local.edges())
                cell_rows = [total + count for total, count in zip(cell_rows, rows)]
            cells[cell] = CellState(
                cell=cell,
                subgraph=subgraph,
                to_local=old.to_local,
                to_global=old.to_global,
                tables=tables,
                # Keywords unchanged -> the old postings still describe it.
                index=(
                    InvertedIndex.from_graph(subgraph)
                    if any(int(cell_of[node]) == cell for node, _ in delta.set_keywords)
                    else old.index
                ),
            )
        self._cells = tuple(cells)

        border_rebuilt = delta.structural
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

        index_rebuilt = bool(delta.set_keywords)
        if index_rebuilt:
            self._index = (
                self._cells[0].index
                if len(self._cells) == 1
                else InvertedIndex.from_graph(graph)
            )

        self._epoch += 1
        return WorldUpdate(
            epoch=self._epoch,
            delta=delta,
            repaired_cells=tuple(sorted(repair)),
            refreshed_cells=tuple(sorted(refresh)),
            border_rebuilt=border_rebuilt,
            index_rebuilt=index_rebuilt,
            swept_rows={
                kind: (cell, overlay)
                for kind, cell, overlay in zip(("tau", "sigma"), cell_rows, overlay_rows)
            },
        )
