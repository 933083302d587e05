"""``ShardedQueryService`` — partition-routed serving over many engines.

A flat engine's dense cost tables are the scale ceiling: ``O(n^2)``
floats per matrix.  This tier splits the graph with
:func:`repro.prep.partition.partition_graph` (the paper's Section-6
sketch) into a :class:`~repro.world.MutableWorld` of cells, each with its
own (small) tables and inverted index over its induced subgraph, plus
one :class:`~repro.service.crosscell.BorderEngine` that answers queries
over the *full* graph from the very same per-cell tables plus a
``k x k`` border tier.  There is **no flat global engine**: per-service
table memory genuinely shrinks as ``num_cells`` grows.

Routing rule
------------
A query is *cell-local* when the cell owning its **source node** also
owns the target **and** every query keyword has at least one candidate
node inside that cell.  For such queries the service runs **one wave of
two concurrent attempts**: the owning cell's engine (cheap, sees only
the induced subgraph) and the cross-cell :class:`BorderEngine` (sees the
whole graph through assembled border tables).  Feasible outcomes merge
by objective score, ties preferring the cell engine; a cell route is
always genuinely feasible (the subgraph is a subgraph), and the border
assembly is *exact* (see :mod:`repro.service.crosscell`), so the merged
answer carries the same feasibility/objective semantics as a flat
engine.  Queries whose endpoints or keywords span cells — or whose
keywords are missing from the vocabulary entirely — skip the cell
attempt and run on the :class:`BorderEngine` alone.

With ``num_cells=1`` the single cell *is* the whole graph: the shard
engine answers everything by itself (no cross-cell twin is built) and
every answer matches the flat service bit for bit — it is the flat
service (:mod:`repro.service.base`).

Execution
---------
Attempts ship as picklable :class:`~repro.service.backends.WaveTask`
objects through any :class:`~repro.service.backends.ExecutionBackend`:
inline on the serial backend, or on a process pool whose workers hold
their own copies of the shard engines.  The cross-cell engine ships the same way:
its :class:`~repro.service.backends.EngineHandle` pickles the
partitioned border tables and re-materialises a ``BorderEngine``
worker-side.  Results coming back from a cell engine are translated from
cell-local node ids to global ids before anything downstream sees them.
"""

from __future__ import annotations

from repro.core.engine import KOREngine
from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.partition import GraphPartition
from repro.service.backends import ExecutionBackend
from repro.service.base import RoutedService, Shard
from repro.service.crosscell import BorderEngine
from repro.world import MutableWorld

__all__ = ["Shard", "ShardedQueryService"]

#: Table arrays counted by :meth:`ShardedQueryService.memory_bytes`.
_TABLE_ARRAYS = ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "pred_tau", "pred_sigma")
#: The border-tier twins of those arrays on the partitioned tables.
_BORDER_ARRAYS = tuple(f"border_{name}" for name in _TABLE_ARRAYS)


class ShardedQueryService(RoutedService):
    """Partition-routed, cached, backend-executed serving layer.

    Parameters
    ----------
    graph:
        The full spatial-keyword graph to serve.
    num_cells:
        Partition granularity (default :func:`repro.world.default_num_cells`).
        ``num_cells=1`` is the flat service exactly.
    seed:
        Partition seed (farthest-point sampling is randomised).
    backend:
        Execution backend for shard waves; default a
        :class:`~repro.service.backends.SerialBackend` owned (and closed)
        by this service.  A caller-supplied backend is shared, not owned.
    cache_capacity:
        Result-cache size, as in the flat service.  Cached entries are
        already translated to global node ids.
    world:
        A pre-built :class:`~repro.world.MutableWorld` to serve instead
        of partitioning *graph*.
    """

    def __init__(
        self,
        graph: SpatialKeywordGraph | None = None,
        num_cells: int | None = None,
        seed: int = 0,
        backend: ExecutionBackend | None = None,
        cache_capacity: int = 1024,
        world: MutableWorld | None = None,
    ) -> None:
        if world is None:
            if graph is None:
                raise QueryError("ShardedQueryService needs a graph or a world")
            world = MutableWorld(graph, num_cells=num_cells, seed=seed)
        elif graph is not None and graph is not world.graph:
            raise QueryError(
                "pass either a graph or a world, not both: the world carries "
                "its own graph"
            )
        super().__init__(world, cache_capacity, backend)

    @classmethod
    def from_engine(cls, engine: KOREngine, **kwargs) -> "ShardedQueryService":
        """Shard an existing engine's graph (the engine is not reused)."""
        return cls(engine.graph, **kwargs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def world(self) -> MutableWorld:
        """The mutable world this service serves (graph + tables + index)."""
        return self._world

    @property
    def graph(self) -> SpatialKeywordGraph:
        """The full graph being served."""
        return self._graph

    @property
    def partition(self) -> GraphPartition:
        """The node-to-cell assignment behind the shards."""
        return self._world.partition

    @property
    def shards(self) -> tuple[Shard, ...]:
        """One :class:`Shard` per cell, in cell order."""
        return self._shards

    @property
    def num_shards(self) -> int:
        """Number of cells the graph was split into."""
        return len(self._shards)

    @property
    def border_engine(self) -> BorderEngine:
        """The cross-cell tier: full-graph answers over border tables.

        With one cell nothing serves it (the cell is the whole graph);
        it is then assembled on access over the world's tables.
        """
        if self._border_engine is not None:
            return self._border_engine
        world = self._world
        return BorderEngine(world.graph, tables=world.tables, index=world.index)

    def memory_bytes(self) -> int:
        """Bytes of cost-table state resident in this service.

        Counts every score and predecessor matrix across the cell
        engines and the cross-cell tier exactly once (the border tier
        shares the cell tables, so shared arrays are deduplicated by
        identity), plus the assembled tables' bounded row/column LRU
        caches: derived state, but resident nonetheless.  This is the
        number the memory-scaling test pins: without a flat global
        engine it must not grow with ``num_cells``.
        """
        seen: set[int] = set()
        assembled = self._world.tables
        arrays = [
            getattr(tables, name)
            for tables in (
                *(shard.engine.tables for shard in self._shards),
                *assembled.cell_tables,
            )
            for name in _TABLE_ARRAYS
        ] + [getattr(assembled, name) for name in _BORDER_ARRAYS]
        total = assembled.cache_bytes()
        for array in arrays:
            if array is not None and id(array) not in seen:
                seen.add(id(array))
                total += array.nbytes
        return total

    def plan_of(self, query: KORQuery) -> str:
        """The routing decision for *query* (``local`` / ``*-span-cells``
        / ``keywords-missing-from-graph`` / ``invalid-endpoints``),
        without running anything."""
        return self._plan(query)[0]
