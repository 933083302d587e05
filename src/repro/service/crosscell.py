"""``BorderEngine`` — cross-cell KOR answering over border tables.

The sharded service used to keep a full flat
:class:`~repro.core.engine.KOREngine` as its "global tier", which meant
every service paid ``O(n^2)`` floats *on top of* the per-cell tables —
memory grew with the cell count instead of shrinking.  This module
completes the partition architecture instead: a :class:`BorderEngine`
answers any KOR/KkR query over the **full** graph, but its cost tables
are a :class:`repro.prep.partition.PartitionedCostTables` — per-cell
all-pairs tables (shared with the cell engines, not duplicated) plus
border-to-border tables holding exact full-graph scores.

Why this is exact
-----------------
Crossing a cell boundary is only possible along an edge whose two
endpoints are both border nodes.  An optimal path from ``i`` to ``j``
therefore decomposes at its first border node ``b1`` (the prefix never
left ``cell(i)``) and its last border node ``b2`` (the suffix never
leaves ``cell(j)``); minimising ``in_cell(i -> b1) + border(b1 -> b2) +
in_cell(b2 -> j)`` over every border pair recovers the flat table's
value, and in-cell paths are covered by the cell term.  Route legs are
materialised the same way — in-cell legs through each cell's predecessor
matrices, the border leg hop by hop through the border tier's overlay
predecessors (cut edges, and in-cell shortcuts expanded through their
cell) — so every route a :class:`BorderEngine` returns is a real walk of
the full graph with exactly the scores the search saw.

Because the search algorithms consume tables only through the shared
access protocol, a :class:`BorderEngine` *is* a
:class:`~repro.core.engine.KOREngine` — same algorithms, same results
semantics, same feasibility behaviour — just with ``O(sum n_c^2 + k^2)``
table memory instead of ``O(n^2)``.
"""

from __future__ import annotations

from repro.core.engine import KOREngine
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.partition import GraphPartition, PartitionedCostTables
from repro.prep.tables import CostTables

__all__ = ["BorderEngine"]


class BorderEngine(KOREngine):
    """A :class:`KOREngine` over the full graph backed by partitioned tables.

    Parameters
    ----------
    graph:
        The full spatial-keyword graph.
    tables:
        Path-capable :class:`PartitionedCostTables` over *graph* (built
        with ``predecessors=True`` so routes can be materialised).
    index:
        Full-graph inverted index; built from *graph* when omitted.
    """

    def __init__(
        self,
        graph: SpatialKeywordGraph,
        tables: PartitionedCostTables | None = None,
        index: InvertedIndex | None = None,
    ) -> None:
        if tables is None:
            tables = PartitionedCostTables.from_graph(graph, predecessors=True)
        if not isinstance(tables, PartitionedCostTables):
            raise QueryError(
                "BorderEngine needs PartitionedCostTables; for flat tables "
                "use KOREngine directly"
            )
        if tables.num_nodes != graph.num_nodes:
            raise QueryError(
                f"tables cover {tables.num_nodes} nodes but the graph has "
                f"{graph.num_nodes}"
            )
        if not tables.has_paths:
            raise QueryError(
                "BorderEngine needs path-capable tables: build the "
                "PartitionedCostTables with predecessors=True"
            )
        super().__init__(graph, tables=tables, index=index)

    @classmethod
    def from_partition(
        cls,
        graph: SpatialKeywordGraph,
        partition: GraphPartition,
        cell_tables: tuple[CostTables, ...],
        index: InvertedIndex | None = None,
    ) -> "BorderEngine":
        """Assemble an engine sharing an existing deployment's cell tables.

        This is the sharded service's constructor path: the per-cell
        :class:`CostTables` the cell engines already materialised are
        reused as-is, so the only *new* memory is the border tier.
        """
        tables = PartitionedCostTables.from_graph(
            graph,
            partition=partition,
            cell_tables=cell_tables,
            predecessors=True,
        )
        return cls(graph, tables=tables, index=index)

    @property
    def partition(self) -> GraphPartition:
        """The node-to-cell assignment behind the assembled tables."""
        return self.tables.partition

    @property
    def num_border_nodes(self) -> int:
        """Size of the border tier (the ``k`` in the ``k x k`` tables)."""
        return len(self.tables.partition.border_nodes)

    def table_memory_bytes(self) -> int:
        """Bytes held by the assembled tables (scores + predecessors)."""
        return self.tables.memory_bytes(include_paths=True)
