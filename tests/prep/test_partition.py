"""Tests for partition-based pre-processing (paper future work, §6)."""

import numpy as np
import pytest

from repro.exceptions import PrepError
from repro.graph.generators import figure_1_graph, grid_graph
from repro.prep.partition import (
    _CACHE_BYTE_BUDGET,
    _CACHE_MIN_ENTRIES,
    PartitionedCostTables,
    partition_graph,
)
from repro.prep.tables import CostTables

from tests.ops import recost

#: The byte-bounded LRUs among the derived caches (the blocks are
#: bounded by the partition).
BOUNDED = ("_column_cache", "_row_cache", "_leg_cache", "_mid_cache")


def warm_everywhere(tables, nodes=None) -> None:
    """Fill every derived cache of *tables* from the sources and targets
    *nodes* (default: all): primary-only columns and mids at even nodes,
    pairs at odd ones, both kinds' rows and legs, and the per-cell blocks
    that two readers per kind slice, read from every node."""
    n = tables.num_nodes
    nodes = range(n) if nodes is None else nodes
    for node in nodes:
        if node % 2:
            tables.bs_tau_col(node)
            tables.os_sigma_col(node)
        else:
            tables.os_tau_col(node)
            tables.bs_sigma_col(node)
        tables.os_tau_row(node)
        tables.bs_sigma_row(node)
    for step in (2, 3):
        for kind in ("tau", "sigma"):
            reader = tables.row_reader(np.arange(0, n, step), kind)
            for node in nodes:
                reader.primary(node)


def _edge_in_cell(world, cell: int) -> tuple[int, int, float, float]:
    """The first edge ``(u, v, objective, budget)`` of *world* whose ends
    are both in *cell*."""
    cell_of = world.partition.cell_of
    return next(
        (u, v, objective, budget)
        for u in range(world.graph.num_nodes)
        for v, objective, budget in world.graph.out_edges(u)
        if cell_of[u] == cell_of[v] == cell
    )


def _same_bits(mine, theirs) -> bool:
    if mine is None or theirs is None:
        return mine is theirs
    mine, theirs = np.asarray(mine), np.asarray(theirs)
    return (mine.dtype, mine.shape, mine.tobytes()) == (
        theirs.dtype,
        theirs.shape,
        theirs.tobytes(),
    )


def assert_caches_read_fresh(tables, fresh=None) -> dict[str, int]:
    """Every entry *tables* holds in its derived caches equals, bit for
    bit, the same read on *fresh* tables (default: a copy of *tables*
    with empty caches), and every bounded cache keeps to its byte
    budget.  Returns the number of entries checked per cache."""
    import dataclasses

    fresh = dataclasses.replace(tables) if fresh is None else fresh
    for key, (prim, sec), _nbytes in tables._column_cache.items():
        want = fresh._columns(*key, pair=sec is not None)
        assert _same_bits(prim, want[0]) and _same_bits(sec, want[1]), ("column", key)
    for key, (prim, sec), _nbytes in tables._row_cache.items():
        want = fresh._rows(*key)
        assert _same_bits(prim, want[0]) and _same_bits(sec, want[1]), ("row", key)
    for key, (prim, sec), _nbytes in tables._leg_cache.items():
        want = fresh._leg(*key)
        assert _same_bits(prim, want[0]) and _same_bits(sec, want[1]), ("leg", key)
    for key, (prim, sec), _nbytes in tables._mid_cache.items():
        want = fresh._mid(*key, pair=sec is not None)
        assert _same_bits(prim, want[0]) and _same_bits(sec, want[1]), ("mid", key)
    for key, block in tables._blocks.items():
        assert _same_bits(block, fresh._block(*key)), ("block", key)
    for name in BOUNDED:
        cache = getattr(tables, name)
        assert cache.nbytes() <= _CACHE_BYTE_BUDGET or len(cache) <= _CACHE_MIN_ENTRIES, name
        assert cache.nbytes() == sum(nbytes for _key, _value, nbytes in cache.items()), name
    return {name: len(getattr(tables, name)) for name in TestPathMaterialisation.DERIVED}


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
        assert sorted(v for cell in partition.cells for v in cell) == list(range(grid.num_nodes))

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
        np.testing.assert_allclose(partitioned.bs_sigma_col(target), flat.bs_sigma_col(target))
        np.testing.assert_allclose(partitioned.os_tau_col(target), flat.os_tau_col(target))

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
                    np.testing.assert_allclose(partitioned.os_tau_col(t), flat.os_tau_col(t))
                    np.testing.assert_allclose(partitioned.bs_sigma_col(t), flat.bs_sigma_col(t))

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
            np.testing.assert_array_equal(gathered[:, position], partitioned.os_tau_col(int(t)))

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
        return PartitionedCostTables.from_graph(grid, num_cells=4, seed=1, predecessors=True)

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
        tables = PartitionedCostTables.from_graph(graph, num_cells=6, seed=0, predecessors=True)
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
        cell_preds = sum(t.pred_tau.nbytes + t.pred_sigma.nbytes for t in with_paths.cell_tables)
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
        tables = PartitionedCostTables.from_graph(graph, num_cells=2, seed=0, predecessors=True)
        with pytest.raises(PrepError):
            tables.tau_path(5, 0)

    def test_scoreless_tables_refuse_paths(self, partitioned):
        assert not partitioned.has_paths
        with pytest.raises(PrepError):
            partitioned.tau_path(0, 1)

    def test_row_column_caches_stay_bounded(self, grid, monkeypatch):
        """The LRU caches can never regrow an O(n^2) footprint."""
        from repro.prep.partition import _CACHE_MIN_ENTRIES

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
                tables.bs_tau_entries(t)[0]
                reader.primary(t)
                tables.row_reader(np.array([t, 0]), kind).primary(t)
        # Every cache is bounded by bytes, so the one-byte budget holds each
        # at its entry floor.
        caches = ("_column_cache", "_row_cache", "_leg_cache", "_mid_cache")
        for name in caches:
            assert len(getattr(tables, name)) == _CACHE_MIN_ENTRIES, name
        per_entry = 2 * 8 * grid.num_nodes
        per_leg = 2 * 8 * len(tables.partition.border_nodes)
        # Per (side, kind, cell, secondary) at most one contiguous in-cell
        # block: bounded by the partition, not by what was read.
        sizes = [len(nodes) for nodes in tables.partition.cells]
        borders = [len(rows) for rows in tables._cell_borders]
        blocks_bound = 2 * 2 * 8 * 2 * sum(b * c for b, c in zip(borders, sizes))

        def primary_only(cache):
            return [key for key, ((_prim, sec), _nbytes) in cache._data.items() if sec is None]

        def expected_bytes():
            """Full entries at two arrays each, primary-only ones at one,
            plus the blocks' own count."""
            return (
                _CACHE_MIN_ENTRIES * (2 * per_entry + 2 * per_leg)
                - len(primary_only(tables._column_cache)) * per_entry // 2
                - len(primary_only(tables._mid_cache)) * per_leg // 2
                + tables._blocks.nbytes()
            )

        # The loop read the columns' primaries only: such an entry holds
        # one array, counted as one, until a caller asks for the pair and
        # the entry is replaced in place.  So do the mids behind them, save
        # the tau mids the per-node BS(tau) read asked whole.
        columns_primary_only = primary_only(tables._column_cache)
        assert {kind for _t, kind in columns_primary_only} == {"tau", "sigma"}
        mids_primary_only = primary_only(tables._mid_cache)
        assert mids_primary_only and all(kind == "sigma" for _t, kind in mids_primary_only)
        assert 0 < tables._blocks.nbytes() <= blocks_bound
        assert tables.cache_bytes() == expected_bytes()
        for t, kind in columns_primary_only:
            primary = tables._columns(t, kind, pair=False)[0]
            tables.bs_tau_col(t) if kind == "tau" else tables.os_sigma_col(t)
            np.testing.assert_array_equal(tables._columns(t, kind, pair=False)[0], primary)
        assert primary_only(tables._column_cache) == []
        for name in caches:
            assert len(getattr(tables, name)) == _CACHE_MIN_ENTRIES, name
        assert 0 < tables._blocks.nbytes() <= blocks_bound
        assert tables.cache_bytes() == expected_bytes()
        # Hot entries survive (LRU, not clear-on-full): the last target
        # touched is still cached.
        last = grid.num_nodes - 1
        assert tables._column_cache.get((last, "tau")) is not None

    def test_a_readers_memo_stays_within_the_byte_budget(self, grid, monkeypatch):
        """One reader read from every source, twice: its memoised rows are
        evicted oldest first once their bytes pass the budget, a row it
        still holds is handed out again, and one it dropped reads the same
        floats when built again."""
        nodes = np.arange(0, grid.num_nodes, 2)
        row_bytes = 8 * len(nodes)
        fits = _CACHE_MIN_ENTRIES + 4
        monkeypatch.setattr("repro.prep.partition._CACHE_BYTE_BUDGET", fits * row_bytes)
        tables = PartitionedCostTables.from_graph(grid, num_cells=4, seed=1)
        for kind in ("tau", "sigma"):
            reader = tables.row_reader(nodes, kind)
            first = [reader.primary(source) for source in range(grid.num_nodes)]
            memo = reader._rows
            assert len(memo) == fits and memo.nbytes() == fits * row_bytes
            assert memo.nbytes() == sum(nbytes for _key, _value, nbytes in memo.items())
            held = [key for key, _value, _nbytes in memo.items()]
            assert held == list(range(grid.num_nodes - fits, grid.num_nodes))
            for source in held:
                assert reader.primary(source) is first[source]
            for source, row in enumerate(first):
                assert reader.primary(source).tobytes() == row.tobytes()
                assert len(memo) == fits and memo.nbytes() == fits * row_bytes

    def test_lru_cache_evicts_oldest_first(self):
        from repro.prep.partition import _CACHE_BYTE_BUDGET, _LRUPairCache

        # Pairs of a twentieth of the byte budget: twenty fit exactly.
        fits = 20
        pair = (np.empty(_CACHE_BYTE_BUDGET // (2 * 8 * fits)),) * 2
        cache = _LRUPairCache()
        for key in range(fits):
            cache.put(key, pair)
        assert cache.nbytes() == _CACHE_BYTE_BUDGET
        assert cache.get(0) is not None  # refresh key 0
        cache.put(fits, pair)  # evicts key 1 (oldest unrefreshed)
        assert len(cache) == fits
        assert cache.nbytes() == _CACHE_BYTE_BUDGET
        assert cache.get(1) is None
        assert cache.get(0) is not None
        assert cache.get(fits) is not None
        # A primary-only entry is charged its one array.
        cache.put("primary", (pair[0], None))
        assert cache.nbytes() == _CACHE_BYTE_BUDGET - pair[0].nbytes

    def test_lru_cache_keeps_its_entry_floor(self):
        """Entries each past the whole budget: the floor, not the bytes,
        decides how many stay."""
        from repro.prep.partition import _CACHE_BYTE_BUDGET, _CACHE_MIN_ENTRIES, _LRUPairCache

        pair = (np.empty(_CACHE_BYTE_BUDGET // 8),) * 2
        cache = _LRUPairCache()
        for key in range(3 * _CACHE_MIN_ENTRIES):
            cache.put(key, pair)
            assert len(cache) == min(key + 1, _CACHE_MIN_ENTRIES)
        assert cache.get(2 * _CACHE_MIN_ENTRIES - 1) is None
        assert cache.get(2 * _CACHE_MIN_ENTRIES) is not None

    def test_lru_cache_survives_concurrent_readers_and_writers(self):
        """Thread workers share one tables object: interleaved get/put on
        a full cache must neither raise (the unlocked version lost keys
        between its check and its delete) nor overshoot its entry floor."""
        import random
        import sys
        import threading

        from repro.prep.partition import _CACHE_BYTE_BUDGET, _CACHE_MIN_ENTRIES, _LRUPairCache

        cache = _LRUPairCache()
        pair = (np.empty(_CACHE_BYTE_BUDGET // 8),) * 2  # past the budget: the floor holds
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(30_000):
                    key = rng.randrange(_CACHE_MIN_ENTRIES + 8)
                    if cache.get(key) is None:
                        cache.put(key, pair)
                    assert len(cache) <= _CACHE_MIN_ENTRIES
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
        assert len(cache) == _CACHE_MIN_ENTRIES
        assert cache.nbytes() == _CACHE_MIN_ENTRIES * 2 * pair[0].nbytes

    def test_byte_lru_survives_concurrent_readers_and_writers(self):
        """The shared-reader cache under the same hammering: entries of
        varying size, get/put interleaved on a cache past its budget, and
        the byte count always equal to what the entries claim."""
        import random
        import sys
        import threading

        from repro.prep.partition import _CACHE_BYTE_BUDGET, _CACHE_MIN_ENTRIES, _ByteLRU

        cache = _ByteLRU()
        chunk = _CACHE_BYTE_BUDGET // 8
        errors = []

        def worker(seed):
            rng = random.Random(seed)
            try:
                for _ in range(30_000):
                    key = rng.randrange(64)
                    if cache.get(key) is None:
                        cache.put(key, key, rng.choice((1, chunk)))
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
        assert cache.nbytes() == sum(nbytes for _value, nbytes in cache._data.values())
        assert cache.nbytes() <= _CACHE_BYTE_BUDGET or len(cache) <= _CACHE_MIN_ENTRIES

    def test_shared_reads_survive_concurrent_threads(self, grid, monkeypatch):
        """Thread workers share one tables object: concurrent searches,
        each building its own readers over the same node sets, reading the
        same legs, mids and blocks (evicted all the while under a small
        budget) read the single-thread floats."""
        import sys
        import threading

        monkeypatch.setattr("repro.prep.partition._CACHE_BYTE_BUDGET", 20_000)
        reference = PartitionedCostTables.from_graph(grid, num_cells=4, seed=1)
        node_sets = [np.arange(start, grid.num_nodes, 3) for start in range(3)]

        def read(tables, kind, index, source):
            """A search's reads: the row at the node set, every secondary
            of it, and BS(tau) from node *index* to target *source*."""
            reader = tables.row_reader(node_sets[index], kind)
            secondaries = [reader.secondary_at(source, p) for p in range(len(node_sets[index]))]
            entry = tables.bs_tau_entries(source)[index]
            return reader.primary(source).tolist(), secondaries, entry

        expected = {
            (kind, index, source): read(reference, kind, index, source)
            for kind in ("tau", "sigma")
            for index in range(len(node_sets))
            for source in range(grid.num_nodes)
        }
        shared = PartitionedCostTables.from_graph(grid, num_cells=4, seed=1)
        errors = []

        def worker(seed):
            rng = np.random.default_rng(seed)
            try:
                for _ in range(150):
                    key = (
                        ("tau", "sigma")[int(rng.integers(2))],
                        int(rng.integers(len(node_sets))),
                        int(rng.integers(grid.num_nodes)),
                    )
                    assert read(shared, *key) == expected[key]
            except Exception as exc:  # surfaced below, in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []

    #: Every cache of derived state a tables object holds.
    DERIVED = ("_column_cache", "_row_cache", "_leg_cache", "_mid_cache", "_blocks")

    @staticmethod
    def warm(tables) -> None:
        """Populate every derived cache: a column, a row, legs, a mid,
        and per-cell blocks (a reader's row slices them)."""
        tables.os_tau_col(24)
        tables.os_tau_row(24)
        tables.bs_tau_entries(48)[0]
        tables.row_reader(np.arange(0, 49, 3), "sigma").primary(24)
        for name in TestPathMaterialisation.DERIVED:
            assert len(getattr(tables, name)) > 0, name
        assert tables.cache_bytes() > 0

    def test_pickle_round_trip_drops_caches_keeps_answers(self, grid, with_paths):
        """Worker handles and ``PartPatch`` objects pickle the tables: what
        a parent looked up must neither ship nor grow the pickle."""
        import dataclasses
        import pickle

        cold = len(pickle.dumps(dataclasses.replace(with_paths)))
        self.warm(with_paths)
        assert len(pickle.dumps(with_paths)) == cold
        clone = pickle.loads(pickle.dumps(with_paths))
        for name in self.DERIVED:
            assert getattr(clone, name) == {}, name
        assert clone.cache_bytes() == 0
        np.testing.assert_array_equal(clone.os_tau_row(24), with_paths.os_tau_row(24))
        np.testing.assert_array_equal(clone.os_tau_col(24), with_paths.os_tau_col(24))
        assert clone.tau_path(0, 48) == with_paths.tau_path(0, 48)

    def test_dataclass_replace_starts_with_empty_caches(self, with_paths):
        """A copy with a new border tier: nothing computed from the old
        border tier may survive it."""
        import dataclasses

        self.warm(with_paths)
        patched = dataclasses.replace(with_paths, border_os_tau=with_paths.border_os_tau + 1.0)
        for name in self.DERIVED:
            assert getattr(patched, name) == {}, name
        assert patched.cache_bytes() == 0

    def test_repair_without_a_change_carries_every_entry(self, grid):
        """Same cells, no cut edge: no border row moves, so every entry of
        every cache survives as the very object the old tables held."""
        tables = PartitionedCostTables.from_graph(grid, num_cells=4, seed=1, predecessors=True)
        warm_everywhere(tables)
        repaired, swept = tables.repaired(grid, tables.cell_tables, [])
        assert swept == (0, 0)
        for name in BOUNDED:
            old, new = getattr(tables, name).items(), getattr(repaired, name).items()
            assert [key for key, *_ in new] == [key for key, *_ in old], name
            assert all(a[1] is b[1] for a, b in zip(new, old)), name
        assert len(repaired._blocks) == len(tables._blocks)
        assert all(repaired._blocks.get(key) is block for key, block in tables._blocks.items())
        assert repaired.cache_bytes() == tables.cache_bytes()
        assert_caches_read_fresh(repaired)

    def test_repair_of_a_cell_carries_what_it_left_valid(self):
        """One re-costed edge inside a cell: a block, leg or mid is carried
        as the old object exactly when its cell is not the repaired one
        and no border entry it reads moved; rows, columns and readers read
        every cell's tables and are dropped.  What is held reads fresh."""
        from repro.datasets import RoadConfig, build_road_graph
        from repro.world import MutableWorld

        world = MutableWorld(build_road_graph(RoadConfig(num_nodes=120, seed=3)), num_cells=4)
        cell_of = world.partition.cell_of
        old = world.tables
        warm_everywhere(old)
        u, v, objective, budget = _edge_in_cell(world, 0)
        update = world.apply_ops([recost(u, v, objective=objective * 3, budget=budget * 2)])
        new = world.tables
        assert update.repaired_cells == (0,)
        counts = assert_caches_read_fresh(new)
        assert counts["_blocks"] and counts["_leg_cache"] and counts["_mid_cache"], counts
        assert counts["_column_cache"] == counts["_row_cache"] == 0, counts

        moved = {
            kind: np.logical_or.reduce(
                [
                    mine != theirs
                    for mine, theirs in zip(old._border_matrices(kind), new._border_matrices(kind))
                ]
            )
            for kind in ("tau", "sigma")
        }
        assert all(rows.any() for rows in moved.values())
        for key, block in old._blocks.items():
            assert (new._blocks.get(key) is block) == (key[2] != 0), key
        dropped_elsewhere = 0
        for name, reads in (
            ("_leg_cache", lambda moved, borders: moved[borders]),  # exit rows
            ("_mid_cache", lambda moved, borders: moved[:, borders]),  # entry columns
        ):
            held = {key: value for key, value, _nbytes in getattr(new, name).items()}
            for (node, kind), value, _nbytes in getattr(old, name).items():
                cell = cell_of[node]
                valid = cell != 0 and not reads(moved[kind], new._cell_borders[cell]).any()
                assert (held.get((node, kind)) is value) == valid, (name, node, kind)
                assert ((node, kind) in held) == valid, (name, node, kind)
                dropped_elsewhere += cell != 0 and not valid
        assert dropped_elsewhere

    def test_repair_of_a_cut_edge_carries_every_cell(self):
        """A re-cost between cells replaces no cell: rows and columns
        survive with their source's leg or target's mid."""
        from repro.datasets import RoadConfig, build_road_graph
        from repro.world import MutableWorld

        world = MutableWorld(build_road_graph(RoadConfig(num_nodes=120, seed=3)), num_cells=4)
        cell_of = world.partition.cell_of
        old = world.tables
        warm_everywhere(old)
        u, v, objective, budget = next(
            (u, v, objective, budget)
            for u in range(world.graph.num_nodes)
            for v, objective, budget in world.graph.out_edges(u)
            if cell_of[u] != cell_of[v]
        )
        world.apply_ops([recost(u, v, objective=objective * 1.01, budget=budget)])
        new = world.tables
        assert all(mine is theirs for mine, theirs in zip(new.cell_tables, old.cell_tables))
        counts = assert_caches_read_fresh(new)
        assert all(counts[name] for name in self.DERIVED), counts
        legs = {key: leg for key, leg, _nbytes in new._leg_cache.items()}
        mids = {key: mid for key, mid, _nbytes in new._mid_cache.items()}
        for (i, kind), _row, _nbytes in new._row_cache.items():
            assert (i, kind) in legs or not len(new._cell_borders[cell_of[i]])
        for (t, kind), _column, _nbytes in new._column_cache.items():
            assert (t, kind) in mids or not len(new._cell_borders[cell_of[t]])
        assert len(new._blocks) == len(old._blocks)

    def test_repairs_in_a_row_carry_only_what_neither_changed(self):
        """Two repairs in a row, nothing read in between: what survives
        both reads fresh, and nothing of either repaired cell survives."""
        from repro.datasets import RoadConfig, build_road_graph
        from repro.world import MutableWorld

        world = MutableWorld(build_road_graph(RoadConfig(num_nodes=120, seed=3)), num_cells=4)
        warm_everywhere(world.tables)
        cell_of = world.partition.cell_of
        for cell in (0, 1):
            u, v, objective, budget = _edge_in_cell(world, cell)
            world.apply_ops([recost(u, v, objective=objective * 3, budget=budget * 2)])
        tables = world.tables
        assert_caches_read_fresh(tables, world.rebuilt().tables)
        held = [key for key, *_ in tables._leg_cache.items() + tables._mid_cache.items()]
        assert held and all(cell_of[node] >= 2 for node, _kind in held)
        assert tables._blocks and all(key[2] >= 2 for key in tables._blocks)

    def test_repair_while_readers_first_touch_the_old_tables(self, grid):
        """Thread workers still query the tables a repair replaces: their
        first touches of per-cell blocks must not break the repair's
        carry-over of the old blocks (filtering the live dict raises
        "dictionary changed size during iteration")."""
        import dataclasses
        import sys
        import threading

        tables = PartitionedCostTables.from_graph(grid, num_cells=8, seed=1, predecessors=True)
        old = dataclasses.replace(tables)
        keys = [
            (side, kind, cell, secondary)
            for cell in range(8)
            for side in ("entry", "exit")
            for kind in ("tau", "sigma")
            for secondary in (False, True)
        ]
        for key in keys:
            old._block(*key)
        stop = threading.Event()
        errors = []

        def touch():
            # Each block is dropped again before its touch, so every
            # touch is a first one.
            try:
                while not stop.is_set():
                    for key in keys:
                        old._blocks.pop(key, None)
                        old._block(*key)
            except Exception as exc:  # surfaced below, in the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        thread = threading.Thread(target=touch)
        thread.start()
        try:
            for _round in range(500):
                repaired, _swept = old.repaired(grid, old.cell_tables, [])
                for key, block in repaired._blocks.items():
                    assert _same_bits(block, tables._block(*key)), key
        finally:
            stop.set()
            thread.join(60.0)
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        assert errors == []

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
        # One row pair; no leg, mid or block to keep.
        assert tables.cache_bytes() == 2 * 8 * 4

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
