"""Memory scaling of the sharded service (the point of dropping the
global tier).

With a flat global engine the service's table bytes were ``O(n^2)``
*plus* the per-cell tables — memory grew with ``num_cells``.  With
cross-cell answers assembled from the cells' own tables plus the border
tier, table memory must *shrink* (or at worst hold) as the cell count
grows.  These tests pin that, and guard against a flat ``O(n^2)`` engine
sneaking back into the service.

The graph is an elongated grid: cuts stay ``O(width)`` nodes wide, so
the border tier cannot swamp the quadratic savings — the regime the
partition architecture is designed for (road networks).
"""

from __future__ import annotations

import pytest

from repro.graph.generators import grid_graph
from repro.prep.partition import _CACHE_BYTE_BUDGET, PartitionedCostTables
from repro.prep.tables import CostTables
from repro.service import SerialBackend, ShardedQueryService

CELL_COUNTS = (1, 4, 8)


@pytest.fixture(scope="module")
def long_grid():
    return grid_graph(4, 48)


def service_for(graph, num_cells) -> ShardedQueryService:
    return ShardedQueryService(
        graph, num_cells=num_cells, seed=0, backend=SerialBackend(), cache_capacity=0
    )


def test_memory_non_increasing_in_cell_count(long_grid):
    """Resident engine-table bytes never grow with num_cells."""
    sizes = {}
    for num_cells in CELL_COUNTS:
        with service_for(long_grid, num_cells) as service:
            sizes[num_cells] = service.memory_bytes()
    assert sizes[1] >= sizes[4] >= sizes[8], sizes
    # The first split must actually buy something substantial, not just
    # tie: a 4-way split of a thin grid saves well over half the bytes.
    assert sizes[4] < 0.6 * sizes[1], sizes


def test_no_flat_global_engine(long_grid):
    """No table in the service is O(n^2) once cells > 1."""
    n = long_grid.num_nodes
    with service_for(long_grid, 4) as service:
        assert not hasattr(service, "global_engine")
        assert service.engine.tables is service.world.tables
        assert isinstance(service.engine.tables, PartitionedCostTables)
        for state in service.world.cells:
            assert isinstance(state.tables, CostTables)
            assert state.tables.num_nodes < n
        # The border engine reuses the cell tables rather than cloning:
        for cell_tables, state in zip(service.engine.tables.cell_tables, service.world.cells):
            assert cell_tables is state.tables


def test_single_cell_matches_flat_footprint(long_grid):
    """num_cells=1 degenerates to exactly one flat engine's tables."""
    with service_for(long_grid, 1) as service:
        flat = service.engine.tables
        assert isinstance(flat, CostTables)
        expected = sum(
            getattr(flat, name).nbytes
            for name in (
                "os_tau",
                "bs_tau",
                "os_sigma",
                "bs_sigma",
                "pred_tau",
                "pred_sigma",
            )
        )
        assert service.memory_bytes() == expected
        assert len(service.world.tables.partition.border_nodes) == 0


def test_memory_accounting_deduplicates_shared_tables(long_grid):
    """Counting cells + border tier never double-counts shared cells."""
    with service_for(long_grid, 4) as service:
        assembled = service.world.tables
        border_only = assembled.memory_bytes(include_paths=True)
        cell_only = sum(
            sum(
                getattr(tables, name).nbytes
                for name in (
                    "os_tau",
                    "bs_tau",
                    "os_sigma",
                    "bs_sigma",
                    "pred_tau",
                    "pred_sigma",
                )
            )
            for tables in assembled.cell_tables
        )
        # service.memory_bytes() == cells (once) + border tier.
        assert service.memory_bytes() == border_only
        assert cell_only < border_only


def test_served_answers_still_sound_on_every_granularity(long_grid):
    """The memory win must not cost correctness: spot-check answers."""
    from repro.core.engine import KOREngine
    from repro.core.query import KORQuery

    keywords = {0: ["a"], 95: ["b"], 190: ["c"]}
    graph = grid_graph(4, 48, keywords=keywords)
    flat = KOREngine(graph)
    queries = [
        KORQuery(0, 191, ("a", "b"), 80.0),
        KORQuery(5, 100, ("c",), 200.0),
        KORQuery(47, 150, ("a", "c"), 250.0),
    ]
    expected = [flat.run(q, algorithm="bucketbound") for q in queries]
    for num_cells in CELL_COUNTS:
        with service_for(graph, num_cells) as service:
            got = service.run_batch(queries, algorithm="bucketbound")
            for result, reference in zip(got, expected):
                assert result.feasible == reference.feasible
                if result.feasible:
                    assert result.objective_score == pytest.approx(reference.objective_score)


def test_warm_caches_are_counted_and_stay_below_the_flat_footprint():
    """After serving, ``memory_bytes()`` includes every bounded cache of
    the assembled tables — the border-leg cache among them.  Cold, the
    total is non-increasing in the cell count (above); warm, what a
    search leaves behind is one length-k leg per source it popped, not a
    length-n row, so a split service stays below the one-cell footprint
    (with cached rows the 4-cell service used to end up above it).  The
    per-cell blocks the searches' row readers slice are counted the same
    way."""
    from repro.core.query import KORQuery

    graph = grid_graph(4, 48, keywords={0: ["a"], 95: ["b"], 190: ["c"]})
    queries = [
        KORQuery(0, 191, ("a", "b"), 80.0),
        KORQuery(5, 100, ("c",), 200.0),
        KORQuery(47, 150, ("a", "c"), 250.0),
    ]
    sizes = {}
    for num_cells in CELL_COUNTS:
        with service_for(graph, num_cells) as service:
            cold = service.memory_bytes()
            service.run_batch(queries, algorithm="bucketbound")
            assembled = service.world.tables
            legs = assembled._leg_cache
            # One cell has no border node, hence no leg worth keeping.
            assert (legs.nbytes() > 0) == (num_cells > 1)
            per_leg = 2 * 8 * len(assembled.partition.border_nodes)
            assert legs.nbytes() == len(legs) * per_leg <= _CACHE_BYTE_BUDGET
            assert assembled._row_cache.nbytes() == 0  # the search reads no full row
            assert legs.nbytes() <= assembled.cache_bytes()
            # The per-cell blocks the readers slice are resident too.
            blocks = assembled._blocks
            assert (blocks.nbytes() > 0) == (num_cells > 1)
            assert legs.nbytes() + blocks.nbytes() <= assembled.cache_bytes()
            # The search reads BS(tau) per node: no tau column pair is built.
            assert all(
                kind != "tau" or sec is None
                for (_t, kind), ((_prim, sec), _nbytes) in assembled._column_cache._data.items()
            )
            assert service.memory_bytes() == cold + assembled.cache_bytes()
            sizes[num_cells] = service.memory_bytes()
    assert max(sizes[4], sizes[8]) < 0.6 * sizes[1], sizes


def test_a_served_search_leaves_no_reader_in_the_tables(monkeypatch):
    """The row readers a search builds are its own: once the service has
    answered, none of them is alive, and every byte ``cache_bytes`` counts
    is a per-node entry (a row, column, border leg or mid) or a per-cell
    block of the tables."""
    import gc
    import weakref

    from repro.core.query import KORQuery

    built = []
    row_reader = PartitionedCostTables.row_reader

    def tracked(tables, nodes, kind):
        reader = row_reader(tables, nodes, kind)
        built.append(weakref.ref(reader))
        return reader

    monkeypatch.setattr(PartitionedCostTables, "row_reader", tracked)
    graph = grid_graph(4, 48, keywords={0: ["a"], 95: ["b"], 190: ["c"]})
    queries = [KORQuery(0, 191, ("a", "b"), 80.0), KORQuery(47, 150, ("a", "c"), 250.0)]
    with service_for(graph, 4) as service:
        results = service.run_batch(queries, algorithm="bucketbound")
        assert all(result.route is not None for result in results)
        gc.collect()
        assert built and all(ref() is None for ref in built)
        tables = service.world.tables
        lrus = ("_column_cache", "_row_cache", "_leg_cache", "_mid_cache")
        for name in lrus:
            for (node, kind), _value, _nbytes in getattr(tables, name).items():
                assert type(node) is int and kind in ("tau", "sigma"), name
        counted = sum(getattr(tables, name).nbytes() for name in lrus + ("_blocks",))
        assert tables.cache_bytes() == counted > 0
