"""Property-based tests of the paper's theorems on random small graphs.

For every random (graph, query) instance:

* OSScaling and BucketBound return *feasible* routes whenever the exact
  search finds one (completeness);
* Theorem 2: ``OS(OSScaling) <= OS(opt) / (1 - eps)``;
* Theorem 3: ``OS(BucketBound) <= OS(opt) * beta / (1 - eps)``;
* all algorithms agree on infeasibility.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import branch_and_bound
from repro.core.bucketbound import bucket_bound
from repro.core.osscaling import os_scaling
from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

from tests.strategies import graph_and_query

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)


def prepared(graph):
    return CostTables.from_graph(graph), InvertedIndex.from_graph(graph)


class TestAgainstExactOptimum:
    @SLOW
    @given(graph_and_query(), st.sampled_from((0.1, 0.5, 0.9)))
    def test_theorem2_osscaling_bound(self, instance, epsilon):
        graph, source, target, keywords, delta = instance
        tables, index = prepared(graph)
        query = KORQuery(source, target, keywords, delta)
        exact = branch_and_bound(graph, tables, index, query)
        result = os_scaling(graph, tables, index, query, epsilon=epsilon)
        if not exact.feasible:
            assert not result.feasible
            return
        assert result.feasible
        assert result.route.covers(graph, keywords)
        assert result.route.budget_score <= delta + 1e-9
        assert result.route.objective_score <= exact.route.objective_score / (1 - epsilon) + 1e-9

    @SLOW
    @given(graph_and_query(), st.sampled_from((1.2, 1.6, 2.0)))
    def test_theorem3_bucketbound_bound(self, instance, beta):
        graph, source, target, keywords, delta = instance
        tables, index = prepared(graph)
        query = KORQuery(source, target, keywords, delta)
        epsilon = 0.5
        exact = branch_and_bound(graph, tables, index, query)
        result = bucket_bound(graph, tables, index, query, epsilon=epsilon, beta=beta)
        if not exact.feasible:
            assert not result.feasible
            return
        assert result.feasible
        assert result.route.covers(graph, keywords)
        assert result.route.budget_score <= delta + 1e-9
        assert (
            result.route.objective_score
            <= exact.route.objective_score * beta / (1 - epsilon) + 1e-9
        )

    @SLOW
    @given(graph_and_query())
    def test_exact_route_is_truly_feasible_and_minimal(self, instance):
        """Branch-and-bound vs a tiny exhaustive enumeration.

        Walk enumeration is exponential in Delta/b_min (the very reason
        the paper needs approximation algorithms), so instances too big
        for the oracle are discarded rather than failed.
        """
        from hypothesis import assume

        from repro.core.bruteforce import exhaustive_search

        graph, source, target, keywords, delta = instance
        tables, index = prepared(graph)
        query = KORQuery(source, target, keywords, delta)
        exact = branch_and_bound(graph, tables, index, query)
        try:
            brute = exhaustive_search(graph, index, query, max_expansions=200_000)
        except QueryError:
            assume(False)  # oracle blew its budget; not a counterexample
            return
        assert exact.feasible == brute.feasible
        if exact.feasible:
            assert exact.route.objective_score <= brute.route.objective_score + 1e-9
            assert brute.route.objective_score <= exact.route.objective_score + 1e-9


class TestGreedyContract:
    @SLOW
    @given(graph_and_query())
    def test_greedy_coverage_mode_covers_or_fails(self, instance):
        from repro.core.greedy import greedy

        graph, source, target, keywords, delta = instance
        tables, index = prepared(graph)
        query = KORQuery(source, target, keywords, delta)
        result = greedy(graph, tables, index, query)
        if result.found:
            # Coverage mode: the returned route must genuinely cover.
            assert result.covers_keywords == result.route.covers(graph, keywords)
            assert result.route.source == source
            assert result.route.target == target

    @SLOW
    @given(graph_and_query())
    def test_greedy_budget_mode_respects_delta(self, instance):
        from repro.core.greedy import greedy

        graph, source, target, keywords, delta = instance
        tables, index = prepared(graph)
        query = KORQuery(source, target, keywords, delta)
        result = greedy(graph, tables, index, query, mode="budget")
        if result.found:
            assert result.route.budget_score <= delta + 1e-9
