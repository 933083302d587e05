"""Tests for Algorithm 3 (repro.core.greedy)."""

import pytest

from repro.core.greedy import greedy
from repro.core.query import KORQuery
from repro.exceptions import QueryError


def run(engine, source, target, keywords, delta, **params):
    return greedy(
        engine.graph,
        engine.tables,
        engine.index,
        KORQuery(source, target, keywords, delta),
        **params,
    )


class TestCoverageMode:
    """The paper's default: keywords always covered, budget may overrun."""

    def test_covers_keywords(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("t1", "t2"), 10.0)
        assert result.found
        assert result.covers_keywords
        assert result.route.covers(fig1_engine.graph, ("t1", "t2"))

    def test_may_overrun_budget(self, fig1_engine):
        # t5 only on v1; any covering route costs >= 7 > Delta — greedy
        # still returns a covering route, flagged as over budget.
        result = run(fig1_engine, 0, 7, ("t5",), 6.0)
        assert result.found
        assert result.covers_keywords
        assert not result.within_budget

    def test_algorithm_name_reflects_width(self, fig1_engine):
        assert run(fig1_engine, 0, 7, ("t1",), 10.0).algorithm == "greedy-1"
        assert run(fig1_engine, 0, 7, ("t1",), 10.0, width=2).algorithm == "greedy-2"

    def test_missing_keyword_fails(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("unicorn",), 10.0)
        assert not result.found
        assert "not present" in result.failure_reason

    def test_unreachable_target_fails(self, fig1_engine):
        result = run(fig1_engine, 7, 0, ("t1",), 10.0)
        assert not result.found


class TestBudgetMode:
    """The paper's modified variant: budget kept, coverage may fail."""

    def test_budget_respected(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("t5",), 6.0, mode="budget")
        if result.found:
            assert result.route.budget_score <= 6.0 + 1e-9
            assert not result.covers_keywords  # t5 is unreachable within 6

    def test_easy_query_covers_and_fits(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("t1",), 10.0, mode="budget")
        assert result.found
        assert result.within_budget

    def test_sigma_fallback_leaf_scores(self, fig1_engine, monkeypatch):
        """When tau's budget busts Delta the leaf completes along sigma: its
        scores are pinned, on flat and on partitioned tables alike, and the
        partitioned sigma column stays the primary-only entry the search
        cached (the fallback reads one entry per node, not the pair)."""
        import importlib

        from repro.prep.partition import PartitionedCostTables

        module = importlib.import_module("repro.core.greedy")
        leaves = []
        leaf_type = module._Leaf

        def recording_leaf(*fields):
            leaves.append(leaf_type(*fields))
            return leaves[-1]

        monkeypatch.setattr(module, "_Leaf", recording_leaf)
        graph = fig1_engine.graph
        # Cells {2, 5, 6} and {0, 1, 3, 4, 7}: the waypoint 5 completes to
        # the target 7 across the cut.
        partitioned = PartitionedCostTables.from_graph(
            graph, num_cells=2, seed=0, predecessors=True
        )
        assert partitioned.partition.cell_of[5] != partitioned.partition.cell_of[7]
        pinned = [leaf_type((0, 3, 5), 3, 9.0, 5.0, "sigma")]
        for tables in (fig1_engine.tables, partitioned):
            leaves.clear()
            result = greedy(
                graph, tables, fig1_engine.index, KORQuery(0, 7, ("t1", "t2"), 5.0), mode="budget"
            )
            assert leaves == pinned
            assert result.route.objective_score == 9.0
            assert result.route.budget_score == 5.0
            assert result.within_budget
        assert partitioned._column_cache.get((7, "sigma"))[1] is None


class TestWidth:
    def test_greedy2_never_worse_on_fig1(self, fig1_engine):
        for keywords in (("t1", "t2"), ("t2", "t4"), ("t1", "t2", "t3")):
            one = run(fig1_engine, 0, 7, keywords, 12.0, width=1)
            two = run(fig1_engine, 0, 7, keywords, 12.0, width=2)
            if one.feasible and two.feasible:
                assert two.route.objective_score <= one.route.objective_score + 1e-9

    def test_wide_greedy_explores_more(self, small_flickr_engine):
        graph = small_flickr_engine.graph
        words = tuple(sorted(graph.keyword_table.words)[:3])
        one = run(small_flickr_engine, 0, graph.num_nodes - 1, words, 8.0, width=1)
        two = run(small_flickr_engine, 0, graph.num_nodes - 1, words, 8.0, width=2)
        assert two.stats.loops >= one.stats.loops


class TestAlpha:
    def test_alpha_zero_minimises_budget(self, fig1_engine):
        """Equation 1 with alpha=0 selects purely on budget."""
        result = run(fig1_engine, 0, 7, ("t1", "t2"), 20.0, alpha=0.0)
        assert result.found

    def test_alpha_one_minimises_objective(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("t1", "t2"), 20.0, alpha=1.0)
        assert result.found

    @pytest.mark.parametrize("alpha", [-0.1, 1.1])
    def test_alpha_out_of_range_rejected(self, fig1_engine, alpha):
        with pytest.raises(QueryError, match="alpha"):
            run(fig1_engine, 0, 7, ("t1",), 10.0, alpha=alpha)

    def test_invalid_width_rejected(self, fig1_engine):
        with pytest.raises(QueryError, match="width"):
            run(fig1_engine, 0, 7, ("t1",), 10.0, width=0)

    def test_invalid_mode_rejected(self, fig1_engine):
        with pytest.raises(QueryError, match="mode"):
            run(fig1_engine, 0, 7, ("t1",), 10.0, mode="yolo")


class TestPathCrediting:
    """credit_path_keywords: keywords of traversed tau segments count."""

    def test_crediting_never_breaks_coverage(self, fig1_engine):
        for crediting in (True, False):
            result = run(
                fig1_engine, 0, 7, ("t1", "t2", "t3"), 12.0,
                credit_path_keywords=crediting,
            )
            assert result.found
            assert result.covers_keywords

    def test_literal_pseudocode_may_use_more_waypoints(self, small_flickr_engine):
        graph = small_flickr_engine.graph
        words = tuple(sorted(graph.keyword_table.words)[:4])
        credited = run(small_flickr_engine, 0, graph.num_nodes - 1, words, 10.0)
        literal = run(
            small_flickr_engine, 0, graph.num_nodes - 1, words, 10.0,
            credit_path_keywords=False,
        )
        if credited.found and literal.found:
            # Crediting can only shorten (or keep) the waypoint tour.
            assert credited.route.budget_score <= literal.route.budget_score + 1e-9
