"""The Dijkstra backend must agree exactly with Floyd-Warshall."""

import numpy as np
import pytest

from repro.datasets.road import RoadConfig, build_road_graph
from repro.graph.generators import figure_1_graph, grid_graph
from repro.prep.dijkstra import (
    all_pairs_two_criteria,
    reconstruct_path,
    single_source_two_criteria,
)
from repro.prep.floyd_warshall import floyd_warshall_two_criteria


class TestBackendEquivalence:
    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_figure1_scores_match(self, which):
        graph = figure_1_graph()
        fw_primary, fw_secondary, _p1 = floyd_warshall_two_criteria(graph, which)
        dj_primary, dj_secondary, _p2 = all_pairs_two_criteria(graph, which)
        np.testing.assert_allclose(dj_primary, fw_primary)
        np.testing.assert_allclose(dj_secondary, fw_secondary)

    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_random_road_graph_scores_match(self, which):
        graph = build_road_graph(RoadConfig(num_nodes=120, seed=3))
        fw_primary, fw_secondary, _p1 = floyd_warshall_two_criteria(graph, which)
        dj_primary, dj_secondary, _p2 = all_pairs_two_criteria(graph, which)
        np.testing.assert_allclose(dj_primary, fw_primary, rtol=1e-9)
        np.testing.assert_allclose(dj_secondary, fw_secondary, rtol=1e-9)

    def test_blocked_computation_matches_unblocked(self):
        graph = grid_graph(5, 5)
        full = all_pairs_two_criteria(graph, "objective")
        blocked = all_pairs_two_criteria(graph, "objective", block_size=7)
        np.testing.assert_allclose(blocked[0], full[0])
        np.testing.assert_allclose(blocked[1], full[1])


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
        from repro.graph.generators import line_graph

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

    @staticmethod
    def graphs():
        from repro.graph.generators import line_graph

        return {
            "figure1": figure_1_graph(),  # unreachable pairs
            "road": build_road_graph(RoadConfig(num_nodes=120, seed=3)),
            # The longest chain a graph of its size can have: no early stop.
            "line": line_graph(33),
        }

    @pytest.mark.parametrize("name", ["figure1", "road", "line"])
    @pytest.mark.parametrize("which", ["objective", "budget"])
    def test_lookup_and_doubling_match_the_loops(self, name, which):
        from scipy.sparse.csgraph import dijkstra

        from repro.prep import dijkstra as module

        graph = self.graphs()[name]
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
