"""The one table builder against the lexicographic Floyd-Warshall reference."""

import tracemalloc

import numpy as np
import pytest

from repro.datasets.road import RoadConfig, build_road_graph
from repro.graph.generators import figure_1_graph, grid_graph, line_graph
from repro.graph.mutation import GraphMutator
from repro.prep import dijkstra
from repro.prep.dijkstra import (
    all_pairs_two_criteria,
    reconstruct_path,
    repair_all_pairs,
    single_source_two_criteria,
)
from repro.world import MutableWorld

from tests.floyd_warshall import floyd_warshall_two_criteria
from tests.ops import recost


@pytest.fixture(scope="module", params=["road-120", "road-1000-cell-1"])
def road_graph(request):
    if request.param == "road-120":
        return build_road_graph(RoadConfig(num_nodes=120, seed=3))
    # A default-sized cell of the sharded road world (road-1000, 4 cells).
    world = MutableWorld(build_road_graph(RoadConfig(num_nodes=1000, seed=1000)), num_cells=4)
    subgraph = world.cells[1].subgraph
    assert subgraph.num_nodes == 239
    return subgraph


def graphs():
    return {
        "figure1": figure_1_graph(),  # unreachable pairs
        "grid": grid_graph(5, 5),  # equal weights: ties everywhere
        "road": build_road_graph(RoadConfig(num_nodes=120, seed=3)),
        # The longest chain a graph of its size can have: no early stop,
        # and row blocks stop doubling after different numbers of rounds.
        "line": line_graph(33),
    }


class TestBackendEquivalence:
    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_figure1_scores_match(self, which):
        graph = figure_1_graph()
        fw_primary, fw_secondary, _p1 = floyd_warshall_two_criteria(graph, which)
        dj_primary, dj_secondary, _p2 = all_pairs_two_criteria(graph, which)
        np.testing.assert_allclose(dj_primary, fw_primary)
        np.testing.assert_allclose(dj_secondary, fw_secondary)

    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_random_road_graph_scores_match(self, which, road_graph):
        """On road graphs the builder keeps the very paths the lexicographic
        reference keeps: equal predecessors are what let every table come
        from the one builder without moving an answer."""
        fw_primary, fw_secondary, fw_pred = floyd_warshall_two_criteria(road_graph, which)
        dj_primary, dj_secondary, dj_pred = all_pairs_two_criteria(road_graph, which)
        np.testing.assert_allclose(dj_primary, fw_primary, rtol=1e-9)
        np.testing.assert_allclose(dj_secondary, fw_secondary, rtol=1e-9)
        np.testing.assert_array_equal(dj_pred, fw_pred)


class TestRowBlocks:
    """Sweeping in bounded row blocks stores bitwise what one block of
    every source stores, and bounds the sweep's scratch."""

    @staticmethod
    def rows_per_block(monkeypatch, rows: int, n: int) -> None:
        """Shrink (or grow) the module budget to *rows* rows of *n* nodes."""
        monkeypatch.setattr(dijkstra, "SWEEP_BLOCK_BYTES", 8 * n * rows)

    @pytest.mark.parametrize("name", ["figure1", "grid", "road", "line"])
    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_all_pairs_across_blocks_is_the_one_block_sweep(self, monkeypatch, name, which):
        graph = graphs()[name]
        n = graph.num_nodes
        self.rows_per_block(monkeypatch, n, n)
        whole = all_pairs_two_criteria(graph, which)
        for rows in (7, 1):
            self.rows_per_block(monkeypatch, rows, n)
            blocked = all_pairs_two_criteria(graph, which)
            for expected, got in zip(whole, blocked):
                assert got.dtype == expected.dtype
                assert np.array_equal(got, expected)

    @pytest.mark.parametrize("name", ["grid", "road"])
    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_repair_across_blocks_is_the_one_block_repair(self, monkeypatch, name, which):
        """Both halves of a repair run in blocks: the tie check and the
        re-sweep of the stale rows."""
        graph = graphs()[name]
        n = graph.num_nodes
        edges = list(graph.iter_edges())[::9][:4]
        mutator = GraphMutator(graph)
        mutator.apply_ops([recost(e.u, e.v, objective=e.objective * 1.5) for e in edges])
        changed = np.array([(e.u, e.v) for e in edges])
        self.rows_per_block(monkeypatch, n, n)
        previous = all_pairs_two_criteria(graph, which)
        whole = repair_all_pairs(mutator.graph, previous, changed, which)
        # Ties re-sweep every grid row; most road rows are copied.
        assert 0 < len(whole[3]) < n or name == "grid"
        for rows in (7, 1):
            self.rows_per_block(monkeypatch, rows, n)
            blocked = repair_all_pairs(mutator.graph, previous, changed, which)
            for expected, got in zip(whole, blocked):
                assert np.array_equal(got, expected)
        rebuilt = all_pairs_two_criteria(mutator.graph, which)
        for expected, got in zip(rebuilt, whole):
            assert np.array_equal(got, expected)

    def test_build_scratch_stays_within_a_few_budgets(self):
        """On 600 nodes one block of every source would take ~70 budgets
        of scratch; the blocked sweep holds its outputs, the dense
        secondary lookup and a few budgets' worth of block arrays."""
        graph = build_road_graph(RoadConfig(num_nodes=600, seed=6))
        n = graph.num_nodes
        graph.to_csr()  # the graph's own cached arrays are not the sweep's
        tracing = tracemalloc.is_tracing()
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            outputs = all_pairs_two_criteria(graph, "objective")
            _current, peak = tracemalloc.get_traced_memory()
        finally:
            if not tracing:
                tracemalloc.stop()
        held = sum(array.nbytes for array in outputs)
        lookup = 8 * n * n
        assert peak - before < held + lookup + 16 * dijkstra.SWEEP_BLOCK_BYTES


class TestSingleSource:
    def test_matches_all_pairs_row(self):
        graph = figure_1_graph()
        primary, secondary, _pred = single_source_two_criteria(graph, 0, "objective")
        all_primary, all_secondary, _ = all_pairs_two_criteria(graph, "objective")
        np.testing.assert_allclose(primary, all_primary[0])
        np.testing.assert_allclose(secondary, all_secondary[0])


class TestPathReconstruction:
    def test_path_endpoints(self):
        graph = figure_1_graph()
        _primary, _secondary, pred = all_pairs_two_criteria(graph, "objective")
        path = reconstruct_path(pred[0], 0, 7)
        assert path[0] == 0 and path[-1] == 7

    def test_paper_tau_path(self):
        graph = figure_1_graph()
        _primary, _secondary, pred = all_pairs_two_criteria(graph, "objective")
        assert reconstruct_path(pred[0], 0, 7) == [0, 3, 4, 7]

    def test_source_equals_target(self):
        graph = figure_1_graph()
        _primary, _secondary, pred = all_pairs_two_criteria(graph, "objective")
        assert reconstruct_path(pred[0], 0, 0) == [0]

    def test_unreachable_target_raises(self):
        graph = line_graph(3)
        _primary, _secondary, pred = all_pairs_two_criteria(graph, "objective")
        with pytest.raises(ValueError):
            reconstruct_path(pred[2], 2, 0)


class TestSecondaryAccumulation:
    """The vectorised lookup and the early-stopping pointer doubling give
    bit-for-bit what the loops they replaced gave (kept here as the
    reference: the arithmetic did not change, only how much of it runs)."""

    @staticmethod
    def reference_lookup(graph, which):
        lookup = np.zeros((graph.num_nodes, graph.num_nodes), dtype=np.float64)
        for edge in graph.iter_edges():
            lookup[edge.u, edge.v] = edge.budget if which == "objective" else edge.objective
        return lookup

    @staticmethod
    def reference_doubling(pred, sources, sec_lookup):
        rows, n = pred.shape
        cols = np.broadcast_to(np.arange(n, dtype=np.int64), (rows, n))
        source_col = sources.astype(np.int64)[:, None]
        valid = pred >= 0
        chain = np.where(valid, pred.astype(np.int64), source_col)
        step = np.zeros((rows, n), dtype=np.float64)
        step[valid] = sec_lookup[chain[valid], cols[valid]]
        row_idx = np.arange(rows)
        chain[row_idx, sources] = sources
        step[row_idx, sources] = 0.0
        total = step
        for _ in range(max(1, int(np.ceil(np.log2(max(n, 2)))))):
            total = total + np.take_along_axis(total, chain, axis=1)
            chain = np.take_along_axis(chain, chain, axis=1)
        return total

    @pytest.mark.parametrize("name", ["figure1", "road", "line"])
    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_lookup_and_doubling_match_the_loops(self, name, which):
        from scipy.sparse.csgraph import dijkstra

        from repro.prep import dijkstra as module

        graph = graphs()[name]
        lookup = module._dense_secondary_lookup(graph, which)
        np.testing.assert_array_equal(lookup, self.reference_lookup(graph, which))
        for sources in (np.arange(graph.num_nodes), np.array([graph.num_nodes - 1, 0])):
            _dist, pred = dijkstra(
                module._csr_weight_matrix(graph, which), indices=sources, return_predecessors=True
            )
            np.testing.assert_array_equal(
                module._secondary_by_pointer_doubling(pred, sources, lookup),
                self.reference_doubling(pred, sources, lookup),
            )
