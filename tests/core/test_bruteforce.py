"""Tests for the exact baselines (repro.core.bruteforce)."""

import pytest

from repro.core.bruteforce import branch_and_bound, exhaustive_search
from repro.core.query import KORQuery
from repro.exceptions import QueryError


class TestExhaustiveSearch:
    def test_finds_paper_optimum(self, fig1_engine):
        result = exhaustive_search(
            fig1_engine.graph, fig1_engine.index, KORQuery(0, 7, ("t1", "t2", "t3"), 8.0)
        )
        assert result.feasible
        assert result.route.objective_score == 4.0

    def test_proves_infeasibility(self, fig1_engine):
        result = exhaustive_search(
            fig1_engine.graph, fig1_engine.index, KORQuery(0, 7, ("t5",), 6.0)
        )
        assert not result.feasible

    def test_expansion_cap_raises(self, fig1_engine):
        with pytest.raises(QueryError, match="expansions"):
            exhaustive_search(
                fig1_engine.graph,
                fig1_engine.index,
                KORQuery(0, 7, ("t1", "t2"), 50.0),
                max_expansions=10,
            )

    def test_may_revisit_nodes(self, fig1_engine):
        """The optimum may be a non-simple walk (paper §3.2 remark)."""
        # t4 on v4 and t5 on v1: from v0 the cheapest covering walk to v7
        # revisits nothing here, but the walk search must allow it anyway;
        # assert the search tolerates generous budgets without missing.
        result = exhaustive_search(
            fig1_engine.graph, fig1_engine.index, KORQuery(0, 7, ("t4", "t5"), 14.0)
        )
        assert result.feasible


class TestBranchAndBound:
    def test_agrees_with_exhaustive(self, fig1_engine):
        for keywords, delta in (
            (("t1",), 8.0),
            (("t1", "t2"), 10.0),
            (("t2", "t4"), 9.0),
            (("t1", "t2", "t3"), 8.0),
        ):
            query = KORQuery(0, 7, keywords, delta)
            bnb = branch_and_bound(fig1_engine.graph, fig1_engine.tables, fig1_engine.index, query)
            brute = exhaustive_search(fig1_engine.graph, fig1_engine.index, query)
            assert bnb.feasible == brute.feasible
            if brute.feasible:
                assert bnb.route.objective_score == pytest.approx(brute.route.objective_score)

    def test_algorithm_label(self, fig1_engine):
        result = branch_and_bound(
            fig1_engine.graph, fig1_engine.tables, fig1_engine.index,
            KORQuery(0, 7, ("t1",), 8.0),
        )
        assert result.algorithm == "exact"

    def test_exact_beats_or_ties_approximations(self, fig1_engine):
        query = KORQuery(0, 7, ("t1", "t2"), 10.0)
        exact = branch_and_bound(fig1_engine.graph, fig1_engine.tables, fig1_engine.index, query)
        for algorithm in ("osscaling", "bucketbound"):
            approx = fig1_engine.run(query, algorithm=algorithm)
            assert exact.route.objective_score <= approx.route.objective_score + 1e-9
