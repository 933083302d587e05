"""Tests for partition-based pre-processing (paper future work, §6)."""

import numpy as np
import pytest

from repro.exceptions import PrepError
from repro.graph.generators import figure_1_graph, grid_graph
from repro.prep.partition import PartitionedCostTables, partition_graph
from repro.prep.tables import CostTables


@pytest.fixture(scope="module")
def grid():
    return grid_graph(7, 7)


@pytest.fixture(scope="module")
def partitioned(grid):
    return PartitionedCostTables.from_graph(grid, num_cells=4, seed=1)


@pytest.fixture(scope="module")
def flat(grid):
    return CostTables.from_graph(grid, predecessors=False)


class TestPartitioning:
    def test_every_node_assigned(self, grid):
        partition = partition_graph(grid, 4)
        assert sorted(v for cell in partition.cells for v in cell) == list(
            range(grid.num_nodes)
        )

    def test_cells_roughly_balanced(self, grid):
        partition = partition_graph(grid, 4)
        sizes = [len(cell) for cell in partition.cells]
        assert max(sizes) <= 3 * min(sizes)

    def test_border_nodes_have_crossing_edges(self, grid):
        partition = partition_graph(grid, 4)
        for node in partition.border_nodes:
            crossing = any(
                partition.cell_of[node] != partition.cell_of[v]
                for v, _o, _b in grid.out_edges(int(node))
            ) or any(
                partition.cell_of[e.u] != partition.cell_of[int(node)]
                for e in grid.iter_edges()
                if e.v == int(node)
            )
            assert crossing

    def test_is_border_consistent(self, grid):
        partition = partition_graph(grid, 4)
        for node in range(grid.num_nodes):
            assert partition.is_border(node) == (node in set(partition.border_nodes.tolist()))

    def test_single_cell_has_no_borders(self, grid):
        partition = partition_graph(grid, 1)
        assert partition.num_cells == 1
        assert len(partition.border_nodes) == 0

    def test_invalid_cell_count_raises(self, grid):
        with pytest.raises(PrepError):
            partition_graph(grid, 0)
        with pytest.raises(PrepError):
            partition_graph(grid, grid.num_nodes + 1)


class TestAssembledScores:
    """Partitioned scores are exact: any optimal path decomposes at its
    first/last border node, and the border leg is measured on the full
    graph (see the module docstring of repro.prep.partition)."""

    @pytest.mark.parametrize("target", [0, 24, 48])
    def test_sigma_never_undercuts_flat(self, partitioned, flat, target):
        assembled = partitioned.bs_sigma_col(target)
        reference = flat.bs_sigma_col(target)
        finite = np.isfinite(reference)
        assert np.all(assembled[finite] >= reference[finite] - 1e-9)

    @pytest.mark.parametrize("target", [0, 24, 48])
    def test_tau_never_undercuts_flat(self, partitioned, flat, target):
        assembled = partitioned.os_tau_col(target)
        reference = flat.os_tau_col(target)
        finite = np.isfinite(reference)
        assert np.all(assembled[finite] >= reference[finite] - 1e-9)

    @pytest.mark.parametrize("target", [0, 10, 24, 48])
    def test_exact_on_grid(self, partitioned, flat, target):
        """Primary scores equal the flat tables', not just bound them."""
        np.testing.assert_allclose(
            partitioned.bs_sigma_col(target), flat.bs_sigma_col(target)
        )
        np.testing.assert_allclose(
            partitioned.os_tau_col(target), flat.os_tau_col(target)
        )

    def test_exact_on_random_directed_graphs(self):
        """Exactness holds on directed non-uniform graphs too."""
        from tests.service.test_differential import random_instance

        for seed in (0, 1, 2, 3):
            engine, _queries = random_instance(seed)
            graph = engine.graph
            flat = CostTables.from_graph(graph, predecessors=False)
            for cells in (2, 3):
                partitioned = PartitionedCostTables.from_graph(
                    graph, num_cells=min(cells, graph.num_nodes), seed=seed
                )
                for t in range(graph.num_nodes):
                    np.testing.assert_allclose(
                        partitioned.os_tau_col(t), flat.os_tau_col(t)
                    )
                    np.testing.assert_allclose(
                        partitioned.bs_sigma_col(t), flat.bs_sigma_col(t)
                    )

    def test_rows_match_columns(self, partitioned):
        """Row and column assemblies describe the same table."""
        for i in (0, 7, 24):
            row = partitioned.os_tau_row(i)
            for j in (0, 13, 48):
                assert row[j] == pytest.approx(partitioned.os_tau_col(j)[i])
        for i in (3, 30):
            row = partitioned.bs_sigma_row(i)
            for j in (1, 25):
                assert row[j] == pytest.approx(partitioned.bs_sigma_col(j)[i])

    def test_scalar_lookups_match_columns(self, partitioned):
        column = partitioned.os_tau_col(10)
        for node in (0, 5, 30):
            assert partitioned.os_tau(node, 10) == pytest.approx(column[node])

    def test_multi_column_gather_matches_columns(self, partitioned):
        nodes = np.array([0, 24, 48])
        gathered = partitioned.os_tau_cols(nodes)
        for position, t in enumerate(nodes):
            np.testing.assert_array_equal(
                gathered[:, position], partitioned.os_tau_col(int(t))
            )

    def test_reachability_preserved(self):
        """Unreachable pairs stay inf under partitioning."""
        from repro.graph.generators import line_graph

        graph = line_graph(6)
        partitioned = PartitionedCostTables.from_graph(graph, num_cells=2, seed=0)
        assert np.isinf(partitioned.os_tau(5, 0))
        assert np.isfinite(partitioned.os_tau(0, 5))


class TestPathMaterialisation:
    """tau_path / sigma_path stitch real full-graph walks whose scores
    equal the assembled table entries."""

    @pytest.fixture(scope="class")
    def with_paths(self, grid):
        return PartitionedCostTables.from_graph(
            grid, num_cells=4, seed=1, predecessors=True
        )

    def test_paths_rescore_to_table_entries(self, grid, with_paths):
        from repro.core.route import Route

        for i, j in ((0, 48), (24, 3), (6, 42), (17, 17)):
            route = Route.from_nodes(grid, with_paths.tau_path(i, j))
            assert route.nodes[0] == i and route.nodes[-1] == j
            assert route.objective_score == pytest.approx(with_paths.os_tau(i, j))
            assert route.budget_score == pytest.approx(with_paths.bs_tau(i, j))
            route = Route.from_nodes(grid, with_paths.sigma_path(i, j))
            assert route.budget_score == pytest.approx(with_paths.bs_sigma(i, j))
            assert route.objective_score == pytest.approx(with_paths.os_sigma(i, j))

    def test_paths_across_three_cells_rescore_to_table_entries(self):
        """Float-weight road graph, six cells: long paths cross several
        cells, so the middle leg alternates cut edges with shortcuts that
        each expand through a different cell's predecessor matrix."""
        from repro.core.route import Route
        from repro.datasets import RoadConfig, build_road_graph

        graph = build_road_graph(RoadConfig(num_nodes=150, seed=7))
        tables = PartitionedCostTables.from_graph(
            graph, num_cells=6, seed=0, predecessors=True
        )
        cell_of = tables.partition.cell_of
        long_paths = 0
        for i in range(0, graph.num_nodes, 7):
            for j in range(3, graph.num_nodes, 11):
                for path, objective, budget in (
                    (tables.tau_path(i, j), tables.os_tau(i, j), tables.bs_tau(i, j)),
                    (tables.sigma_path(i, j), tables.os_sigma(i, j), tables.bs_sigma(i, j)),
                ):
                    assert path[0] == i and path[-1] == j
                    route = Route.from_nodes(graph, path)
                    assert route.objective_score == pytest.approx(objective, rel=1e-12)
                    assert route.budget_score == pytest.approx(budget, rel=1e-12)
                    long_paths += len({int(cell_of[v]) for v in path}) >= 3
        assert long_paths >= 50

    def test_border_predecessors_are_overlay_sized(self, with_paths, partitioned):
        """k x k positions in ``border_nodes``, not k full-graph rows; and
        ``predecessors=False`` still means no path state at all."""
        k = len(with_paths.partition.border_nodes)
        assert 0 < k < with_paths.num_nodes
        for pred in (with_paths.border_pred_tau, with_paths.border_pred_sigma):
            assert pred.shape == (k, k)
            assert pred.max() < k
        assert with_paths.has_paths
        assert partitioned.border_pred_tau is None
        assert partitioned.border_pred_sigma is None
        assert not partitioned.has_paths
        cell_preds = sum(
            t.pred_tau.nbytes + t.pred_sigma.nbytes for t in with_paths.cell_tables
        )
        assert (
            with_paths.memory_bytes(include_paths=True) - with_paths.memory_bytes()
            == cell_preds + 2 * 4 * k * k
        )

    def test_border_inventory_missing_a_cut_edge_is_refused(self, grid):
        """The overlay is only exact when every crossing edge joins two
        border nodes; a partition that says otherwise is an error, not a
        silently wrong tier."""
        import dataclasses

        partition = partition_graph(grid, 2, seed=0)
        dropped = int(partition.border_nodes[0])
        border_nodes = partition.border_nodes[1:]
        border_index = np.full(grid.num_nodes, -1, dtype=np.int64)
        border_index[border_nodes] = np.arange(len(border_nodes))
        broken = dataclasses.replace(
            partition, border_nodes=border_nodes, border_index=border_index
        )
        assert not broken.is_border(dropped)
        with pytest.raises(PrepError, match="crosses cells"):
            PartitionedCostTables.from_graph(grid, partition=broken)

    def test_unreachable_pair_raises(self):
        from repro.graph.generators import line_graph

        graph = line_graph(6)
        tables = PartitionedCostTables.from_graph(
            graph, num_cells=2, seed=0, predecessors=True
        )
        with pytest.raises(PrepError):
            tables.tau_path(5, 0)

    def test_scoreless_tables_refuse_paths(self, partitioned):
        assert not partitioned.has_paths
        with pytest.raises(PrepError):
            partitioned.tau_path(0, 1)

    def test_row_column_caches_stay_bounded(self, grid, monkeypatch):
        """The LRU caches can never regrow an O(n^2) footprint."""
        # A budget small enough that 49 sources overflow every cache.
        monkeypatch.setattr("repro.prep.partition._CACHE_BYTE_BUDGET", 1)
        tables = PartitionedCostTables.from_graph(grid, num_cells=4, seed=1)
        for kind in ("tau", "sigma"):
            reader = tables.row_reader(np.arange(grid.num_nodes), kind)
            for t in range(grid.num_nodes):
                tables.os_tau_col(t)
                tables.bs_sigma_col(t)
                tables.os_tau_row(t)
                tables.bs_sigma_row(t)
                reader.primary(t)
            assert len(reader._memo) == reader._memo.capacity
        capacity = tables._column_cache.capacity
        assert capacity == tables._leg_cache.capacity < 2 * grid.num_nodes
        assert len(tables._column_cache) == capacity
        assert len(tables._row_cache) == capacity
        assert len(tables._leg_cache) == capacity
        per_entry = 2 * 8 * grid.num_nodes
        per_leg = 2 * 8 * len(tables.partition.border_nodes)
        # The loop read the sigma columns' primaries only: such an entry
        # holds one array, counted as one, until ``os_sigma_col`` asks for
        # the pair and the entry is replaced in place.
        primary_only = [
            key for key, (_prim, sec) in tables._column_cache._data.items() if sec is None
        ]
        assert primary_only and all(kind == "sigma" for _t, kind in primary_only)
        assert tables.cache_bytes() == (
            capacity * (2 * per_entry + per_leg) - len(primary_only) * per_entry // 2
        )
        for t, _kind in primary_only:
            primary = tables.bs_sigma_col(t)
            tables.os_sigma_col(t)
            np.testing.assert_array_equal(tables.bs_sigma_col(t), primary)
        assert len(tables._column_cache) == capacity
        assert tables.cache_bytes() == capacity * (2 * per_entry + per_leg)
        # Hot entries survive (LRU, not clear-on-full): the last target
        # touched is still cached.
        last = grid.num_nodes - 1
        assert tables._column_cache.get((last, "tau")) is not None

    def test_lru_cache_evicts_oldest_first(self):
        from repro.prep.partition import _CACHE_BYTE_BUDGET, _LRUPairCache

        # A graph large enough that the byte budget forces the entry floor.
        cache = _LRUPairCache(entry_length=_CACHE_BYTE_BUDGET)
        capacity = cache.capacity
        empty = (np.empty(0), np.empty(0))
        for key in range(capacity):
            cache.put(key, empty)
        assert cache.get(0) is not None  # refresh key 0
        cache.put(capacity, empty)  # evicts key 1 (oldest unrefreshed)
        assert len(cache) == capacity
        assert cache.get(1) is None
        assert cache.get(0) is not None
        assert cache.get(capacity) is not None

    def test_lru_cache_survives_concurrent_readers_and_writers(self):
        """Thread workers share one tables object: interleaved get/put on
        a full cache must neither raise (the unlocked version lost keys
        between its check and its delete) nor overshoot the capacity."""
        import random
        import sys
        import threading

        from repro.prep.partition import _CACHE_BYTE_BUDGET, _LRUPairCache

        cache = _LRUPairCache(entry_length=_CACHE_BYTE_BUDGET)  # the 16-entry floor
        pair = (np.empty(0), np.empty(0))
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(30_000):
                    key = rng.randrange(cache.capacity + 8)
                    if cache.get(key) is None:
                        cache.put(key, pair)
                    assert len(cache) <= cache.capacity
            except Exception as exc:  # surfaced below, in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(cache) == cache.capacity

    def test_pickle_round_trip_drops_caches_keeps_answers(self, grid, with_paths):
        import pickle

        with_paths.os_tau_col(24)  # populate a cache entry of each kind
        with_paths.os_tau_row(24)
        assert len(with_paths._leg_cache) > 0
        clone = pickle.loads(pickle.dumps(with_paths))
        assert clone._column_cache == {}
        assert clone._row_cache == {}
        assert clone._leg_cache == {}
        assert clone.cache_bytes() == 0
        np.testing.assert_array_equal(clone.os_tau_row(24), with_paths.os_tau_row(24))
        np.testing.assert_array_equal(clone.os_tau_col(24), with_paths.os_tau_col(24))
        assert clone.tau_path(0, 48) == with_paths.tau_path(0, 48)

    def test_dataclass_replace_starts_with_empty_caches(self, with_paths):
        """How a pool worker folds a repair patch in (``PartPatch.apply_to``):
        nothing computed from the old border tier may survive it."""
        import dataclasses

        with_paths.os_tau_row(24)
        with_paths.os_tau_col(24)
        patched = dataclasses.replace(
            with_paths, border_os_tau=with_paths.border_os_tau + 1.0
        )
        for name in ("_column_cache", "_row_cache", "_leg_cache"):
            assert len(getattr(with_paths, name)) > 0
            assert getattr(patched, name) == {}

    def test_out_of_range_reads_raise(self, partitioned):
        n = partitioned.num_nodes
        for nodes in ([n], [-1], [0, n + 3]):
            with pytest.raises(PrepError):
                partitioned.row_reader(np.array(nodes), "sigma")
        reader = partitioned.row_reader(np.array([0, 1]), "sigma")
        for source in (n, -1):
            with pytest.raises(PrepError):
                reader.primary(source)
            with pytest.raises(PrepError):
                reader.secondary_at(source, 0)

    def test_cell_without_exits_reads_in_cell_only(self):
        """Two islands, one cell each: no border node anywhere, so a read
        is the in-cell table inside the island and ``inf`` across."""
        from repro.graph.builder import GraphBuilder
        from repro.prep.partition import GraphPartition

        builder = GraphBuilder()
        for _ in range(4):
            builder.add_node(keywords=())
        builder.add_edge(0, 1, 1.5, 2.5)
        builder.add_edge(2, 3, 0.5, 0.25)
        graph = builder.build()
        partition = GraphPartition(
            cell_of=np.array([0, 0, 1, 1]),
            cells=(np.array([0, 1]), np.array([2, 3])),
            border_nodes=np.empty(0, dtype=np.int64),
            border_index=np.full(4, -1, dtype=np.int64),
        )
        tables = PartitionedCostTables.from_graph(graph, partition=partition)
        reader = tables.row_reader(np.arange(4), "sigma")
        np.testing.assert_array_equal(reader.primary(0), [0.0, 2.5, np.inf, np.inf])
        np.testing.assert_array_equal(reader.primary(2), [np.inf, np.inf, 0.0, 0.25])
        assert reader.secondary_at(0, 1) == 1.5
        assert reader.secondary_at(0, 2) == np.inf
        np.testing.assert_array_equal(reader.primary(0), tables.bs_sigma_row(0))
        assert tables.cache_bytes() == 2 * 8 * 4  # one row pair, no leg to keep

    def test_shared_cell_tables_are_validated(self, grid):
        partition = partition_graph(grid, 2, seed=0)
        with pytest.raises(PrepError):
            PartitionedCostTables.from_graph(
                grid,
                partition=partition,
                cell_tables=(CostTables.from_graph(grid),),  # wrong count
            )


class TestMemory:
    def test_partitioned_tables_are_smaller(self, partitioned, grid):
        flat_bytes = PartitionedCostTables.flat_memory_bytes(grid.num_nodes)
        assert partitioned.memory_bytes() < flat_bytes

    def test_figure1_partitioning_works(self):
        graph = figure_1_graph()
        partitioned = PartitionedCostTables.from_graph(graph, num_cells=2, seed=0)
        flat = CostTables.from_graph(graph, predecessors=False)
        assembled = partitioned.os_tau_col(7)
        reference = flat.os_tau_col(7)
        finite = np.isfinite(reference)
        assert np.all(assembled[finite] >= reference[finite] - 1e-9)
