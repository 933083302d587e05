"""Property-based tests for the KkR top-k extension."""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.query import KORQuery
from repro.core.topk import bucket_bound_top_k, os_scaling_top_k
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

from tests.strategies import graph_and_query

SLOW = settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


class TestTopKInvariants:
    @SLOW
    @given(graph_and_query(), st.integers(1, 4))
    def test_osscaling_topk_routes_valid(self, instance, k):
        graph, source, target, keywords, delta = instance
        tables = CostTables.from_graph(graph)
        index = InvertedIndex.from_graph(graph)
        result = os_scaling_top_k(
            graph, tables, index, KORQuery(source, target, keywords, delta), k=k
        )
        assert len(result.routes) <= k
        scores = result.objective_scores
        assert scores == sorted(scores)
        assert len({r.nodes for r in result.routes}) == len(result.routes)
        for route in result.routes:
            assert route.covers(graph, keywords)
            assert route.budget_score <= delta + 1e-9
            assert route.source == source and route.target == target

    @SLOW
    @given(graph_and_query(), st.integers(1, 4))
    def test_bucketbound_topk_routes_valid(self, instance, k):
        graph, source, target, keywords, delta = instance
        tables = CostTables.from_graph(graph)
        index = InvertedIndex.from_graph(graph)
        result = bucket_bound_top_k(
            graph, tables, index, KORQuery(source, target, keywords, delta), k=k
        )
        assert len(result.routes) <= k
        for route in result.routes:
            assert route.covers(graph, keywords)
            assert route.budget_score <= delta + 1e-9

    @SLOW
    @given(graph_and_query())
    def test_top1_feasibility_agrees_with_top1_search(self, instance):
        from repro.core.osscaling import os_scaling

        graph, source, target, keywords, delta = instance
        tables = CostTables.from_graph(graph)
        index = InvertedIndex.from_graph(graph)
        query = KORQuery(source, target, keywords, delta)
        top1 = os_scaling(graph, tables, index, query)
        topk = os_scaling_top_k(graph, tables, index, query, k=1)
        assert top1.feasible == bool(topk.routes)
