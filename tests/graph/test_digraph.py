"""Unit tests for the graph substrate (repro.graph.digraph)."""

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import figure_1_graph, grid_graph


@pytest.fixture()
def triangle():
    builder = GraphBuilder()
    builder.add_node(keywords=["a"], x=0.0, y=0.0)
    builder.add_node(keywords=["b"], x=1.0, y=0.0)
    builder.add_node(keywords=["a", "c"], x=0.0, y=1.0)
    builder.add_edge(0, 1, 1.0, 2.0)
    builder.add_edge(1, 2, 3.0, 4.0)
    builder.add_edge(2, 0, 5.0, 6.0)
    return builder.build()


class TestAccessors:
    def test_counts(self, triangle):
        assert triangle.num_nodes == 3
        assert triangle.num_edges == 3

    def test_out_edges_and_degree(self, triangle):
        assert triangle.out_edges(0) == ((1, 1.0, 2.0),)
        assert triangle.out_degree(0) == 1

    def test_edge_lookup(self, triangle):
        assert triangle.edge(1, 2) == (3.0, 4.0)

    def test_missing_edge_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.edge(0, 2)

    def test_has_edge(self, triangle):
        assert triangle.has_edge(0, 1)
        assert not triangle.has_edge(1, 0)

    def test_node_keywords_and_strings(self, triangle):
        ids = triangle.node_keywords(2)
        assert triangle.keyword_table.words_of(ids) == frozenset({"a", "c"})
        assert triangle.node_keyword_strings(2) == frozenset({"a", "c"})

    def test_names_round_trip(self, triangle):
        assert triangle.index_of(triangle.name_of(1)) == 1

    def test_unknown_name_raises(self, triangle):
        with pytest.raises(GraphError):
            triangle.index_of("nope")

    def test_coordinates(self, triangle):
        assert triangle.coordinates(2) == (0.0, 1.0)
        assert triangle.has_coordinates

    def test_weight_extrema(self, triangle):
        assert triangle.min_objective == 1.0
        assert triangle.max_objective == 5.0
        assert triangle.min_budget == 2.0
        assert triangle.max_budget == 6.0


class TestIterationAndExport:
    def test_iter_edges_yields_every_edge_once(self, triangle):
        edges = {(e.u, e.v): (e.objective, e.budget) for e in triangle.iter_edges()}
        assert edges == {(0, 1): (1.0, 2.0), (1, 2): (3.0, 4.0), (2, 0): (5.0, 6.0)}

    def test_csr_export_shapes(self, triangle):
        indptr, indices, objectives, budgets = triangle.to_csr()
        assert len(indptr) == triangle.num_nodes + 1
        assert indptr[-1] == triangle.num_edges
        assert len(indices) == len(objectives) == len(budgets) == triangle.num_edges

    def test_csr_matches_adjacency(self, triangle):
        indptr, indices, objectives, budgets = triangle.to_csr()
        for u in range(triangle.num_nodes):
            span = slice(int(indptr[u]), int(indptr[u + 1]))
            rebuilt = list(zip(indices[span], objectives[span], budgets[span]))
            assert [(int(v), o, b) for v, o, b in rebuilt] == [
                (v, o, b) for v, o, b in triangle.out_edges(u)
            ]

    def test_coordinate_arrays(self, triangle):
        xs, ys = triangle.coordinate_arrays
        np.testing.assert_allclose(xs, [0.0, 1.0, 0.0])
        np.testing.assert_allclose(ys, [0.0, 0.0, 1.0])


class TestTransforms:
    def test_reverse_flips_every_edge(self, triangle):
        reverse = triangle.reverse()
        assert reverse.has_edge(1, 0)
        assert reverse.edge(1, 0) == (1.0, 2.0)
        assert reverse.num_edges == triangle.num_edges

    def test_reverse_preserves_keywords(self, triangle):
        reverse = triangle.reverse()
        assert reverse.node_keyword_strings(2) == frozenset({"a", "c"})

    def test_induced_subgraph_reindexes(self):
        graph = figure_1_graph()
        sub, mapping = graph.induced_subgraph([0, 2, 3, 6])
        assert sub.num_nodes == 4
        # Edge (2, 6) of the original graph survives under new ids.
        assert sub.has_edge(mapping[2], mapping[6])
        # Edge (0, 1) does not: node 1 was dropped.
        assert all(not sub.has_edge(mapping[0], j) for j in range(4) if j != mapping[3] and j != mapping[2])

    def test_induced_subgraph_keeps_weights(self):
        graph = figure_1_graph()
        sub, mapping = graph.induced_subgraph([0, 3, 5])
        assert sub.edge(mapping[0], mapping[3]) == graph.edge(0, 3)
        assert sub.edge(mapping[3], mapping[5]) == graph.edge(3, 5)

    def test_stats_summary(self):
        graph = grid_graph(3, 3)
        stats = graph.stats()
        assert stats.num_nodes == 9
        assert stats.num_edges == 24  # 12 undirected segments = 24 arcs
        assert stats.max_out_degree == 4
        assert stats.min_objective == 1.0


class TestWithRows:
    """The copy-on-write constructor path behind ``apply_graph_delta``."""

    def test_replaced_rows_equal_a_full_construction(self, triangle):
        sibling = triangle.with_rows(
            {0: [(1, 0.5, 9.0), (2, 7.0, 0.25)]}, {1: triangle.node_keywords(2)}
        )
        assert sibling.out_edges(0) == ((1, 0.5, 9.0), (2, 7.0, 0.25))
        assert sibling.num_edges == 4
        assert (sibling.min_objective, sibling.max_objective) == (0.5, 7.0)
        assert (sibling.min_budget, sibling.max_budget) == (0.25, 9.0)
        assert sibling.node_keyword_strings(1) == frozenset({"a", "c"})
        assert sibling.edge(0, 2) == (7.0, 0.25)
        # The original is untouched, derived caches included.
        assert triangle.out_edges(0) == ((1, 1.0, 2.0),)
        assert triangle.num_edges == 3 and triangle.max_objective == 5.0
        assert not triangle.has_edge(0, 2)

    def test_untouched_state_is_shared_not_copied(self, triangle):
        sibling = triangle.with_rows({0: []})
        for u in (1, 2):
            assert sibling.out_edges(u) is triangle.out_edges(u)
            assert sibling.node_keywords(u) is triangle.node_keywords(u)
        assert sibling.keyword_table is triangle.keyword_table
        assert sibling.coordinate_arrays[0] is triangle.coordinate_arrays[0]
        assert sibling.name_of(2) == triangle.name_of(2)
        assert sibling.num_edges == 2
        assert sibling.to_csr()[0].tolist() == [0, 0, 1, 2]

    def test_dropping_the_extreme_edge_moves_the_bounds(self, triangle):
        sibling = triangle.with_rows({2: []})  # (2, 0, 5.0, 6.0) was both maxima
        assert (sibling.min_objective, sibling.max_objective) == (1.0, 3.0)
        assert (sibling.min_budget, sibling.max_budget) == (2.0, 4.0)
        empty = sibling.with_rows({0: [], 1: []})
        assert empty.num_edges == 0
        assert empty.min_objective == np.inf and empty.max_objective == -np.inf

    @pytest.mark.parametrize(
        "row",
        [
            [(1, 0.0, 1.0)],
            [(1, 1.0, -2.0)],
            [(1, float("nan"), 1.0)],
            [(1, 1.0, float("inf"))],
            [(3, 1.0, 1.0)],
            [(-1, 1.0, 1.0)],
            [(1, 1.0, 1.0), (1, 2.0, 2.0)],
        ],
    )
    def test_a_replaced_row_passes_the_constructors_validation(self, triangle, row):
        with pytest.raises(GraphError):
            triangle.with_rows({0: row})

    def test_rows_outside_the_node_range_are_refused(self, triangle):
        with pytest.raises(GraphError):
            triangle.with_rows({3: []})
        with pytest.raises(GraphError):
            triangle.with_rows({}, {-1: frozenset()})


class TestEdgeLookupCost:
    """``edge`` rents (scans one out-row) before it buys (the |E| map)."""

    def test_single_lookups_never_build_the_map(self):
        graph = grid_graph(4, 4)
        assert graph.edge(0, 1) == (1.0, 1.0)
        assert graph.has_edge(5, 6) and not graph.has_edge(0, 5)
        with pytest.raises(GraphError):
            graph.edge(0, 5)
        assert graph._edge_lookup is None
        # has_edge is a membership scan: any number of them stays mapless.
        for u in range(graph.num_nodes):
            for v in range(graph.num_nodes):
                graph.has_edge(u, v)
        assert graph._edge_lookup is None

    def test_repeated_scoring_builds_it_and_answers_stay_the_same(self):
        graph = grid_graph(4, 4)
        expected = {(e.u, e.v): (e.objective, e.budget) for e in graph.iter_edges()}
        for _sweep in range(3):
            for u in range(graph.num_nodes):
                for v in range(graph.num_nodes):
                    if (u, v) in expected:
                        assert graph.edge(u, v) == expected[(u, v)]
                    else:
                        with pytest.raises(GraphError, match=rf"no edge \({u}, {v}\)"):
                            graph.edge(u, v)
        assert graph._edge_lookup == expected

    def test_out_of_range_endpoints_are_missing_edges(self):
        graph = grid_graph(2, 2)
        for u, v in ((-1, 0), (4, 0), (0, -1), (0, 4)):
            assert not graph.has_edge(u, v)
            with pytest.raises(GraphError, match="no edge"):
                graph.edge(u, v)
