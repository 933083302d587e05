"""``ShardedQueryService`` — serving over a partitioned world.

A flat engine's dense cost tables are the scale ceiling: ``O(n^2)``
floats per matrix.  This tier splits the graph with
:func:`repro.prep.partition.partition_graph` (the paper's Section-6
sketch) into a :class:`~repro.world.MutableWorld` of cells, each with its
own (small) tables over its induced subgraph — the unit of repair — and
serves **one** :class:`~repro.core.engine.KOREngine` over the world's
:class:`~repro.prep.partition.PartitionedCostTables`, which answer
lookups over the *full* graph from those very cell tables plus a
``k x k`` border tier.  There are **no flat global tables**: per-service
table memory genuinely shrinks as ``num_cells`` grows.

Every query is one search on that engine, wherever its endpoints and
keywords lie.  The border assembly is *exact* (see
:mod:`repro.prep.partition`), so an answer carries the same
feasibility/objective semantics as over flat tables, in global node ids.

With ``num_cells=1`` the single cell *is* the whole graph: the service
serves a :class:`~repro.core.engine.KOREngine` over the cell's own tables
and every answer matches the flat service bit for bit — it is the flat
service (:mod:`repro.service.base`).

Execution
---------
Queries ship as picklable :class:`~repro.service.backends.WaveTask`
objects through any :class:`~repro.service.backends.ExecutionBackend`:
inline on the serial backend, or on a process pool whose workers hold
their own copy of the engine.  Its
:class:`~repro.service.backends.EngineHandle` pickles the partitioned
border tables and re-materialises the engine over them worker-side.
"""

from __future__ import annotations

from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.partition import GraphPartition
from repro.service.backends import ExecutionBackend
from repro.service.base import RoutedService
from repro.world import MutableWorld

__all__ = ["ShardedQueryService"]


class ShardedQueryService(RoutedService):
    """Partitioned, cached, backend-executed serving layer.

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
        Execution backend for the waves; default a
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

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def world(self) -> MutableWorld:
        """The mutable world this service serves (graph + tables + index)."""
        return self._open_world()

    @property
    def graph(self) -> SpatialKeywordGraph:
        """The full graph being served."""
        return self._open_world().graph

    @property
    def partition(self) -> GraphPartition:
        """The node-to-cell assignment behind the cells."""
        return self._open_world().partition

    @property
    def num_shards(self) -> int:
        """Number of cells the graph was split into."""
        return self._open_world().num_cells

    def memory_bytes(self) -> int:
        """Bytes of cost-table state resident in this service.

        Counts every score and predecessor matrix of the cell tables and
        the border tier, plus the assembled tables' bounded caches:
        derived state, but resident nonetheless.  This is the number the
        memory-scaling test pins: without flat global tables it must not
        grow with ``num_cells``.
        """
        tables = self._open_world().tables
        return tables.memory_bytes(include_paths=True) + tables.cache_bytes()

    def plan_of(self, query: KORQuery) -> str:
        """How *query* is served, without running anything: the same
        one search for every query — ``local`` on one cell (the cell is
        the graph), ``crosscell`` (over the border tier) on more."""
        return "local" if self.num_shards == 1 else "crosscell"
