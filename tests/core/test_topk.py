"""Tests for the KkR top-k extension (Section 3.5)."""

import pytest

from repro.core.query import KORQuery
from repro.core.route import Route
from repro.core.topk import TopKCollector, bucket_bound_top_k, os_scaling_top_k
from repro.exceptions import QueryError


def route(graph, nodes):
    return Route.from_nodes(graph, nodes)


class TestTopKCollector:
    def test_keeps_best_k(self, fig1_graph):
        collector = TopKCollector(2)
        collector.add(route(fig1_graph, [0, 3, 5, 7]))  # OS 9
        collector.add(route(fig1_graph, [0, 3, 4, 7]))  # OS 4
        collector.add(route(fig1_graph, [0, 1, 7]))     # OS 7
        scores = [r.objective_score for r in collector.routes]
        assert scores == [4.0, 7.0]

    def test_deduplicates_identical_routes(self, fig1_graph):
        collector = TopKCollector(3)
        assert collector.add(route(fig1_graph, [0, 3, 4, 7]))
        assert not collector.add(route(fig1_graph, [0, 3, 4, 7]))
        assert len(collector) == 1

    def test_upper_bound_inf_until_filled(self, fig1_graph):
        collector = TopKCollector(2)
        assert collector.upper_bound == float("inf")
        collector.add(route(fig1_graph, [0, 3, 4, 7]))
        assert collector.upper_bound == float("inf")
        collector.add(route(fig1_graph, [0, 1, 7]))
        assert collector.upper_bound == 7.0

    def test_k_must_be_positive(self):
        with pytest.raises(QueryError):
            TopKCollector(0)


class TestTopKAlgorithms:
    @pytest.mark.parametrize("top_k", [os_scaling_top_k, bucket_bound_top_k])
    def test_k1_matches_top1_objective(self, fig1_engine, top_k):
        result = top_k(
            fig1_engine.graph, fig1_engine.tables, fig1_engine.index,
            KORQuery(0, 7, ("t1", "t2"), 10.0), k=1,
        )
        assert len(result.routes) == 1
        assert result.routes[0].objective_score == 4.0

    @pytest.mark.parametrize("top_k", [os_scaling_top_k, bucket_bound_top_k])
    def test_routes_sorted_and_distinct(self, fig1_engine, top_k):
        result = top_k(
            fig1_engine.graph, fig1_engine.tables, fig1_engine.index,
            KORQuery(0, 7, ("t1", "t2"), 10.0), k=3,
        )
        scores = result.objective_scores
        assert scores == sorted(scores)
        assert len({r.nodes for r in result.routes}) == len(result.routes)

    @pytest.mark.parametrize("top_k", [os_scaling_top_k, bucket_bound_top_k])
    def test_every_returned_route_is_feasible(self, fig1_engine, top_k):
        result = top_k(
            fig1_engine.graph, fig1_engine.tables, fig1_engine.index,
            KORQuery(0, 7, ("t1", "t2"), 10.0), k=4,
        )
        for r in result.routes:
            assert r.covers(fig1_engine.graph, ("t1", "t2"))
            assert r.budget_score <= 10.0 + 1e-9
            assert r.source == 0 and r.target == 7

    @pytest.mark.parametrize("top_k", [os_scaling_top_k, bucket_bound_top_k])
    def test_infeasible_query_returns_empty(self, fig1_engine, top_k):
        result = top_k(
            fig1_engine.graph, fig1_engine.tables, fig1_engine.index,
            KORQuery(0, 7, ("t5",), 6.0), k=3,
        )
        assert result.routes == []
        assert not result.found

    def test_larger_k_extends_smaller_k_prefix(self, fig1_engine):
        small = os_scaling_top_k(
            fig1_engine.graph, fig1_engine.tables, fig1_engine.index,
            KORQuery(0, 7, ("t1", "t2"), 10.0), k=2,
        )
        large = os_scaling_top_k(
            fig1_engine.graph, fig1_engine.tables, fig1_engine.index,
            KORQuery(0, 7, ("t1", "t2"), 10.0), k=4,
        )
        assert small.objective_scores == large.objective_scores[:2]

    def test_engine_dispatch(self, fig1_engine):
        result = fig1_engine.top_k(0, 7, ["t1", "t2"], 10.0, k=2, algorithm="bucketbound")
        assert result.k == 2
        assert result.found
        from repro.exceptions import QueryError as QE

        with pytest.raises(QE):
            fig1_engine.top_k(0, 7, ["t1"], 10.0, k=2, algorithm="greedy")

    @pytest.mark.parametrize("top_k", [os_scaling_top_k, bucket_bound_top_k])
    def test_the_roots_completion_counts_as_a_bound_update(self, top_k):
        """``s``{a} -> ``t`` and ``s`` -> ``m``{a} -> ``t``: the root's own
        tau completion is the first answer, and both algorithms count it."""
        from repro.core.engine import KOREngine
        from repro.graph.builder import GraphBuilder

        builder = GraphBuilder()
        s, m, t = builder.add_node(["a"]), builder.add_node(["a"]), builder.add_node()
        for u, v in ((s, t), (s, m), (m, t)):
            builder.add_edge(u, v, 1.0, 1.0)
        engine = KOREngine(builder.build())
        result = top_k(engine.graph, engine.tables, engine.index, KORQuery(s, t, ("a",), 10.0), k=2)
        assert [r.nodes for r in result.routes] == [(s, t), (s, m, t)]
        assert result.stats.bound_updates == 2
