"""Tests for the Floyd-Warshall reference the table builder is checked against (paper §3.1)."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.generators import figure_1_graph, grid_graph, line_graph
from repro.graph.interop import to_networkx

from tests.floyd_warshall import floyd_warshall_two_criteria


@pytest.fixture(scope="module")
def fig1():
    return figure_1_graph()


class TestPrimaryScores:
    def test_matches_networkx_on_objective(self, fig1):
        os_tau, _bs, _pred = floyd_warshall_two_criteria(fig1, "objective")
        oracle = dict(nx.all_pairs_dijkstra_path_length(to_networkx(fig1), weight="objective"))
        for i in range(fig1.num_nodes):
            for j in range(fig1.num_nodes):
                expected = oracle.get(i, {}).get(j, np.inf)
                assert os_tau[i, j] == pytest.approx(expected)

    def test_matches_networkx_on_budget(self, fig1):
        bs_sigma, _os, _pred = floyd_warshall_two_criteria(fig1, "budget")
        oracle = dict(nx.all_pairs_dijkstra_path_length(to_networkx(fig1), weight="budget"))
        for i in range(fig1.num_nodes):
            for j in range(fig1.num_nodes):
                expected = oracle.get(i, {}).get(j, np.inf)
                assert bs_sigma[i, j] == pytest.approx(expected)

    def test_diagonal_is_zero(self, fig1):
        os_tau, bs_tau, _ = floyd_warshall_two_criteria(fig1, "objective")
        assert np.all(np.diag(os_tau) == 0)
        assert np.all(np.diag(bs_tau) == 0)


class TestSecondaryScores:
    def test_secondary_scores_score_the_primary_path(self, fig1):
        """The secondary matrix must price the *primary-optimal* path."""
        from repro.core.route import Route
        from repro.prep.dijkstra import reconstruct_path

        os_tau, bs_tau, pred = floyd_warshall_two_criteria(fig1, "objective")
        for i in range(fig1.num_nodes):
            for j in range(fig1.num_nodes):
                if i == j or not np.isfinite(os_tau[i, j]):
                    continue
                path = reconstruct_path(pred[i], i, j)
                route = Route.from_nodes(fig1, path)
                assert route.objective_score == pytest.approx(os_tau[i, j])
                assert route.budget_score == pytest.approx(bs_tau[i, j])

    def test_paper_section31_values(self, fig1):
        os_tau, bs_tau, _ = floyd_warshall_two_criteria(fig1, "objective")
        bs_sigma, os_sigma, _ = floyd_warshall_two_criteria(fig1, "budget")
        assert (os_tau[0, 7], bs_tau[0, 7]) == (4.0, 7.0)
        assert (os_sigma[0, 7], bs_sigma[0, 7]) == (9.0, 5.0)


class TestTopologies:
    def test_line_graph_unreachable_pairs(self):
        graph = line_graph(4)
        os_tau, _bs, _pred = floyd_warshall_two_criteria(graph, "objective")
        assert np.isinf(os_tau[3, 0])
        assert os_tau[0, 3] == 3.0

    def test_grid_graph_symmetric_distances(self):
        graph = grid_graph(3, 3)
        os_tau, _bs, _pred = floyd_warshall_two_criteria(graph, "objective")
        assert np.allclose(os_tau, os_tau.T)
        assert os_tau[0, 8] == 4.0  # manhattan distance in hops
