"""The Figure-1 reconstruction must reproduce every worked fact in the paper."""

import pytest

from repro.core.route import Route
from repro.graph.generators import (
    FIGURE_1_KEYWORDS,
    complete_bigraph,
    figure_1_graph,
    grid_graph,
    line_graph,
)
from repro.prep.tables import CostTables


@pytest.fixture(scope="module")
def graph():
    return figure_1_graph()


@pytest.fixture(scope="module")
def tables(graph):
    return CostTables.from_graph(graph)


class TestPaperFacts:
    """Each test pins one fact stated in the paper's text."""

    def test_section2_route_scores(self, graph):
        # "given the route R = <v0,v3,v5,v7>, we have OS(R) = 2+3+4 = 9
        #  and BS(R) = 2+2+1 = 5"
        route = Route.from_nodes(graph, [0, 3, 5, 7])
        assert route.objective_score == 9.0
        assert route.budget_score == 5.0

    def test_preprocessing_tau07(self, graph, tables):
        # "tau_{0,7} = <v0,v3,v4,v7> with OS 4 and BS 7"
        assert tables.os_tau[0, 7] == 4.0
        assert tables.bs_tau[0, 7] == 7.0
        assert tables.tau_path(0, 7) == [0, 3, 4, 7]

    def test_preprocessing_sigma07(self, graph, tables):
        # "sigma_{0,7} = <v0,v3,v5,v7> with OS 9 and BS 5"
        assert tables.os_sigma[0, 7] == 9.0
        assert tables.bs_sigma[0, 7] == 5.0
        assert tables.sigma_path(0, 7) == [0, 3, 5, 7]

    def test_example2_helper_scores(self, tables):
        # Step (b): BS(sigma_{6,7}) = 7; step (c): OS(tau_{3,7}) = 2 with
        # budget 5; step (e): OS(tau_{5,7}) = 3 with budget 4.
        assert tables.bs_sigma[6, 7] == 7.0
        assert tables.os_tau[3, 7] == 2.0
        assert tables.bs_tau[3, 7] == 5.0
        assert tables.os_tau[5, 7] == 3.0
        assert tables.bs_tau[5, 7] == 4.0

    def test_example1_route_scores(self, graph):
        # R1 = <v0,v2,v3,v4> label (., 100, 5, 7); R2 = <v0,v2,v6,v5,v4>
        # label (., 120, 6, 11) at theta = 1/20.
        r1 = Route.from_nodes(graph, [0, 2, 3, 4])
        r2 = Route.from_nodes(graph, [0, 2, 6, 5, 4])
        assert (r1.objective_score, r1.budget_score) == (5.0, 7.0)
        assert (r2.objective_score, r2.budget_score) == (6.0, 11.0)

    def test_theta_ingredients(self, graph):
        # Example 1: theta = 0.5 * o_min * b_min / 10 = 1/20.
        assert graph.min_objective * graph.min_budget == 1.0

    def test_keyword_assignment(self, graph):
        for node, keyword in enumerate(FIGURE_1_KEYWORDS):
            assert graph.node_keyword_strings(node) == frozenset({keyword})


class TestSyntheticGenerators:
    def test_line_graph_shape(self):
        graph = line_graph(5)
        assert graph.num_nodes == 5
        assert graph.num_edges == 4
        assert graph.has_edge(2, 3) and not graph.has_edge(3, 2)

    def test_line_graph_keywords(self):
        graph = line_graph(3, keywords=[["a"], [], ["b"]])
        assert graph.node_keyword_strings(0) == frozenset({"a"})
        assert graph.node_keyword_strings(1) == frozenset()

    def test_grid_graph_ids_and_edges(self):
        graph = grid_graph(2, 3)
        assert graph.num_nodes == 6
        assert graph.has_edge(0, 1) and graph.has_edge(1, 0)
        assert graph.has_edge(0, 3) and graph.has_edge(3, 0)
        assert not graph.has_edge(0, 4)  # no diagonals

    def test_grid_graph_coordinates(self):
        graph = grid_graph(2, 2)
        assert graph.coordinates(3) == (1.0, 1.0)

    def test_complete_bigraph(self):
        graph = complete_bigraph(4)
        assert graph.num_edges == 12
        assert all(graph.has_edge(u, v) for u in range(4) for v in range(4) if u != v)
