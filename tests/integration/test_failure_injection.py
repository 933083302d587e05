"""Failure injection across module boundaries.

Exercises the unhappy paths the paper never mentions but a production
system must survive: corrupted storage, impossible queries, degenerate
graphs and mismatched components.
"""

import numpy as np
import pytest

from repro.core.engine import KOREngine
from repro.exceptions import QueryError
from repro.graph.generators import figure_1_graph, line_graph


class TestImpossibleQueries:
    def test_unknown_keyword(self, fig1_engine):
        result = fig1_engine.query(0, 7, ["nonexistent"], 10.0)
        assert not result.feasible
        assert "not present" in result.failure_reason

    def test_budget_below_cheapest_path(self, fig1_engine):
        result = fig1_engine.query(0, 7, ["t1"], 1.0)
        assert not result.feasible
        assert "exceeds the limit" in result.failure_reason

    def test_unreachable_target(self, fig1_engine):
        result = fig1_engine.query(7, 0, ["t1"], 100.0)
        assert not result.feasible
        assert "unreachable" in result.failure_reason

    def test_out_of_range_nodes(self, fig1_engine):
        with pytest.raises(QueryError):
            fig1_engine.query(-1, 7, ["t1"], 10.0)
        with pytest.raises(QueryError):
            fig1_engine.query(0, 99, ["t1"], 10.0)

    def test_every_algorithm_survives_impossible_queries(self, fig1_engine):
        for algorithm in ("osscaling", "bucketbound", "greedy", "greedy2", "exact"):
            result = fig1_engine.query(0, 7, ["nonexistent"], 10.0, algorithm=algorithm)
            assert not result.feasible


class TestCorruptedStorage:
    def test_truncated_tables_archive(self, tmp_path):
        from repro.exceptions import PrepError
        from repro.prep.tables import CostTables

        path = tmp_path / "tables.npz"
        np.savez(path, os_tau=np.zeros((2, 2)), bs_tau=np.zeros((2, 2)))
        with pytest.raises(PrepError, match="misses arrays"):
            CostTables.load(path)


class TestDegenerateGraphs:
    def test_two_node_graph(self):
        graph = line_graph(2, keywords=[["a"], ["b"]])
        engine = KOREngine(graph)
        result = engine.query(0, 1, ["a", "b"], 2.0)
        assert result.feasible
        assert result.route.nodes == (0, 1)

    def test_single_edge_budget_exactly_at_limit(self):
        graph = line_graph(2, keywords=[[], ["k"]], budget=5.0)
        engine = KOREngine(graph)
        # Definition 4 uses BS <= Delta: a route costing exactly Delta fits.
        assert engine.query(0, 1, ["k"], 5.0).feasible
        assert not engine.query(0, 1, ["k"], 4.999).feasible

    def test_query_with_all_keywords_on_source_and_target(self):
        graph = line_graph(3, keywords=[["a"], [], ["b"]])
        engine = KOREngine(graph)
        result = engine.query(0, 2, ["a", "b"], 2.0)
        assert result.feasible
        assert result.route.objective_score == 2.0


class TestComponentMismatch:
    def test_tables_from_wrong_graph_detected_by_size(self, fig1_engine):
        from repro.prep.tables import CostTables

        small = CostTables.from_graph(line_graph(2))
        with pytest.raises(QueryError, match="tables cover 2 nodes but the graph has 8"):
            KOREngine(figure_1_graph(), tables=small)

    def test_index_from_wrong_graph_detected_by_size(self):
        """An index of another graph would answer from the wrong postings
        ("keywords not present in the graph: t1" where route 0 -> 3 -> 4 ->
        7 exists): it is refused at construction."""
        from repro.graph.generators import grid_graph
        from repro.index.inverted import InvertedIndex

        other = InvertedIndex.from_graph(grid_graph(4, 8, keywords={0: ["t1"], 31: ["t2"]}))
        with pytest.raises(QueryError, match="index covers 32 nodes but the graph has 8"):
            KOREngine(figure_1_graph(), index=other)
        right = KOREngine(figure_1_graph(), index=InvertedIndex.from_graph(figure_1_graph()))
        assert right.query(0, 7, ["t1"], 10.0).route.nodes == (0, 3, 4, 7)
