"""Tests for objective scaling (Section 3.2)."""

import math

import pytest

from repro.core.scaling import ScalingContext
from repro.exceptions import QueryError
from repro.graph.generators import figure_1_graph


@pytest.fixture(scope="module")
def graph():
    return figure_1_graph()


class TestTheta:
    def test_example1_theta(self, graph):
        """Example 1: Delta=10, eps=0.5 => theta = 0.5*o_min*b_min/10 = 1/20."""
        scaling = ScalingContext.for_query(graph, 10.0, 0.5)
        assert scaling.theta == pytest.approx(1 / 20)

    def test_example1_edge_scaling(self, graph):
        """'the objective value of each edge is scaled to 20 times its value'."""
        scaling = ScalingContext.for_query(graph, 10.0, 0.5)
        for edge in graph.iter_edges():
            assert scaling.scale(edge.objective) == pytest.approx(edge.objective * 20)

    @pytest.mark.parametrize("eps", [0.0, 1.0, -0.5, 2.0])
    def test_epsilon_out_of_range_rejected(self, graph, eps):
        with pytest.raises(QueryError, match="epsilon"):
            ScalingContext.for_query(graph, 10.0, eps)

    def test_budget_too_large_to_scale_by_is_rejected(self, graph):
        """theta underflows towards 0 as Delta grows; once a path's
        objective over theta is no longer a finite float, ``scale`` could
        only raise OverflowError from ``floor(inf)`` mid-search."""
        with pytest.raises(QueryError, match="too large to scale"):
            ScalingContext.for_query(graph, 1e308, 0.5)
        # A merely enormous budget is accepted, and scaling the longest
        # conceivable path under it does not raise.
        scaling = ScalingContext.for_query(graph, 1e290, 0.5)
        assert math.isfinite(scaling.scale(graph.num_nodes * graph.max_objective))
        assert ScalingContext.for_query(graph, 1e308, 0.5, exact=True).exact

    def test_scale_is_floor(self, graph):
        scaling = ScalingContext.for_query(graph, 10.0, 0.5)  # theta = 0.05
        assert scaling.scale(0.07) == 1.0
        assert scaling.scale(0.1499) == 2.0

    def test_scaled_values_are_integral(self, graph):
        scaling = ScalingContext.for_query(graph, 7.3, 0.37)
        for value in (0.013, 1.7, 2.9999, 42.0):
            assert scaling.scale(value) == math.floor(value / scaling.theta + 1e-9)


class TestExactMode:
    def test_identity_scale(self, graph):
        scaling = ScalingContext.for_query(graph, 10.0, 0.5, exact=True)
        assert scaling.exact
        assert scaling.scale(3.14159) == 3.14159

    def test_ratio_one(self, graph):
        scaling = ScalingContext.for_query(graph, 10.0, 0.5, exact=True)
        assert scaling.approximation_ratio() == 1.0

    def test_label_bound_infinite(self, graph):
        scaling = ScalingContext.for_query(graph, 10.0, 0.5, exact=True)
        assert scaling.label_bound(graph, 10.0, 2) == math.inf


class TestBounds:
    def test_theorem2_ratio(self, graph):
        assert ScalingContext.for_query(graph, 10.0, 0.5).approximation_ratio() == 2.0
        assert ScalingContext.for_query(graph, 10.0, 0.9).approximation_ratio() == pytest.approx(10.0)

    def test_lemma1_label_bound(self, graph):
        """2^m * floor(Delta/b_min) * floor(o_max*Delta/(eps*o_min*b_min))."""
        scaling = ScalingContext.for_query(graph, 10.0, 0.5)
        m = 2
        expected = (
            2**m
            * math.floor(10.0 / graph.min_budget)
            * math.floor(graph.max_objective / scaling.theta + 1e-9)
        )
        assert scaling.label_bound(graph, 10.0, m) == expected

    def test_label_bound_shrinks_with_epsilon(self, graph):
        loose = ScalingContext.for_query(graph, 10.0, 0.1).label_bound(graph, 10.0, 2)
        tight = ScalingContext.for_query(graph, 10.0, 0.9).label_bound(graph, 10.0, 2)
        assert tight < loose
