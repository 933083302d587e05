"""The border tier is swept on the k-node overlay: differential vs the full graph.

``PartitionedCostTables.from_graph`` builds border-to-border legs on the
overlay **H** (border nodes; cut edges plus each cell's border-to-border
shortcut block) instead of the full graph.  Exactness is the claim under
test: primaries agree with a full-graph sweep (``allclose`` — sums run
over shortcuts, not edges), and every stored ``(primary, secondary)``
entry is the score of a real walk of the graph that ``_border_path``
can produce.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.route import Route
from repro.graph.builder import GraphBuilder
from repro.prep.dijkstra import multi_source_two_criteria
from repro.prep.partition import PartitionedCostTables, partition_graph
from repro.prep.tables import CostTables

from tests.properties.test_partition_properties import _partition_of, _rough_graph

SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: kind -> (primary criterion, border primary, border secondary, predecessors)
KINDS = {
    "tau": ("objective", "border_os_tau", "border_bs_tau", "border_pred_tau"),
    "sigma": ("budget", "border_bs_sigma", "border_os_sigma", "border_pred_sigma"),
}


@st.composite
def overlay_instances(draw):
    """``(graph, path-capable partitioned tables)`` over 1-6 cells.

    Directed float-weight digraphs, so cut edges are mostly one-way; half
    the draws assign nodes to cells at random, which yields cells without
    border nodes, cells whose borders cannot reach each other in-cell and
    one-node cells.  One cell means ``k = 0``.
    """
    n = draw(st.integers(2, 14))
    graph = _rough_graph(draw(st.integers(0, 2**32 - 1)), n, draw(st.sampled_from((0.1, 0.2, 0.4))))
    cells = draw(st.integers(1, min(6, n)))
    if draw(st.booleans()):
        partition = partition_graph(graph, cells, seed=draw(st.integers(0, 3)))
    else:
        extra = draw(st.lists(st.integers(0, cells - 1), min_size=n - cells, max_size=n - cells))
        partition = _partition_of(graph, draw(st.permutations(list(range(cells)) + extra)))
    return graph, PartitionedCostTables.from_graph(graph, partition=partition, predecessors=True)


def assert_overlay_matches_full_graph(graph, tables) -> None:
    """Border primaries == a full-graph sweep; columns == the flat tables."""
    border = tables.partition.border_nodes
    k = len(border)
    for primary, prim_name, sec_name, pred_name in KINDS.values():
        full, _secondary, _pred = multi_source_two_criteria(graph, border, primary)
        stored = getattr(tables, prim_name)
        assert stored.shape == getattr(tables, sec_name).shape == (k, k)
        assert getattr(tables, pred_name).shape == (k, k)
        np.testing.assert_allclose(stored, full[:, border], rtol=1e-12, atol=0)
        # Unreachable in the primary means unreachable in the secondary.
        assert np.array_equal(np.isinf(stored), np.isinf(getattr(tables, sec_name)))
    flat = CostTables.from_graph(graph, predecessors=False)
    for t in range(graph.num_nodes):
        np.testing.assert_allclose(tables.os_tau_col(t), flat.os_tau_col(t), rtol=1e-12, atol=0)
        np.testing.assert_allclose(tables.bs_sigma_col(t), flat.bs_sigma_col(t), rtol=1e-12, atol=0)


def assert_border_legs_are_real_walks(graph, tables) -> None:
    """Every finite border entry re-scores, from edges, along its own path."""
    border = tables.partition.border_nodes.tolist()
    for kind, (_primary, prim_name, sec_name, _pred) in KINDS.items():
        prim_m, sec_m = getattr(tables, prim_name), getattr(tables, sec_name)
        for r1, b1 in enumerate(border):
            for r2, b2 in enumerate(border):
                if not np.isfinite(prim_m[r1, r2]):
                    continue
                path = tables._border_path(b1, b2, kind)
                assert path[0] == b1 and path[-1] == b2
                route = Route.from_nodes(graph, path)  # raises on a non-edge
                scores = (route.objective_score, route.budget_score)
                primary, secondary = scores if kind == "tau" else scores[::-1]
                assert primary == pytest.approx(prim_m[r1, r2], rel=1e-12, abs=0)
                assert secondary == pytest.approx(sec_m[r1, r2], rel=1e-12, abs=0)


class TestOverlayDifferential:
    @SLOW
    @given(overlay_instances())
    def test_border_tier_equals_the_full_graph_sweep(self, instance):
        assert_overlay_matches_full_graph(*instance)

    @SLOW
    @given(overlay_instances())
    def test_every_border_leg_expands_to_a_real_walk(self, instance):
        assert_border_legs_are_real_walks(*instance)

    @SLOW
    @given(overlay_instances(), st.data())
    def test_assembled_paths_rescore_to_table_entries(self, instance, data):
        graph, tables = instance
        n = graph.num_nodes
        for _ in range(6):
            i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
            if not tables.reachable(i, j):
                continue
            route = Route.from_nodes(graph, tables.tau_path(i, j))
            assert (route.nodes[0], route.nodes[-1]) == (i, j)
            assert route.objective_score == pytest.approx(tables.os_tau(i, j), rel=1e-12, abs=0)
            assert route.budget_score == pytest.approx(tables.bs_tau(i, j), rel=1e-12, abs=0)
            route = Route.from_nodes(graph, tables.sigma_path(i, j))
            assert route.budget_score == pytest.approx(tables.bs_sigma(i, j), rel=1e-12, abs=0)
            assert route.objective_score == pytest.approx(tables.os_sigma(i, j), rel=1e-12, abs=0)


def _graph_of(n: int, edges):
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node(keywords=())
    for u, v, objective, budget in edges:
        builder.add_edge(u, v, objective, budget)
    return builder.build()


class TestOverlayCornerCases:
    """The shapes a BFS partition rarely produces, built by hand."""

    def check(self, graph, cell_of):
        tables = PartitionedCostTables.from_graph(
            graph, partition=_partition_of(graph, cell_of), predecessors=True
        )
        assert_overlay_matches_full_graph(graph, tables)
        assert_border_legs_are_real_walks(graph, tables)
        return tables

    def test_borders_of_one_cell_only_connect_through_another(self):
        # Cell 0 = {0, 1} holds no edge at all: its two border nodes reach
        # each other only by leaving through cell 1 — the shortcut block is
        # all inf and the overlay path is cut edge, shortcut, cut edge.
        graph = _graph_of(4, [(0, 2, 0.3, 1.1), (2, 3, 0.7, 0.2), (3, 1, 1.3, 0.9)])
        tables = self.check(graph, [0, 0, 1, 1])
        assert np.isinf(tables.cell_tables[0].os_tau[0, 1])
        assert tables.tau_path(0, 1) == [0, 2, 3, 1]
        assert tables.os_tau(0, 1) == pytest.approx(0.3 + 0.7 + 1.3)

    def test_one_way_cut_edges_keep_the_return_leg_unreachable(self):
        graph = _graph_of(4, [(0, 1, 0.5, 0.5), (1, 2, 0.25, 2.0), (2, 3, 1.5, 0.1)])
        tables = self.check(graph, [0, 0, 1, 1])
        assert np.isfinite(tables.os_tau(0, 3))
        assert np.isinf(tables.os_tau(3, 0)) and np.isinf(tables.bs_tau(3, 0))

    def test_cell_without_a_border_node_and_no_borders_at_all(self):
        # Node 4 is an island in its own cell; with every node in one
        # cell there is no border node anywhere (k = 0).
        edges = [(0, 1, 0.5, 0.5), (1, 2, 0.25, 2.0), (2, 3, 1.5, 0.1), (3, 0, 0.4, 0.4)]
        tables = self.check(_graph_of(5, edges), [0, 0, 1, 1, 2])
        assert np.isinf(tables.os_tau(0, 4)) and np.isinf(tables.os_tau(4, 0))
        single = self.check(_graph_of(4, edges), [0, 0, 0, 0])
        assert single.border_os_tau.shape == single.border_pred_tau.shape == (0, 0)
        assert single.has_paths
        assert single.tau_path(0, 3) == [0, 1, 2, 3]

    def test_the_cheaper_middle_leg_leaves_and_re_enters_a_cell(self):
        # Inside cell 0 the hop 0 -> 1 costs 10; around through cell 1 it
        # costs 3.  The overlay must prefer the detour for tau and the
        # in-cell edge for sigma (budgets the other way round).
        graph = _graph_of(
            4,
            [(0, 1, 10.0, 1.0), (0, 2, 1.0, 5.0), (2, 3, 1.0, 5.0), (3, 1, 1.0, 5.0)],
        )
        tables = self.check(graph, [0, 0, 1, 1])
        assert tables.os_tau(0, 1) == pytest.approx(3.0)
        assert tables.bs_tau(0, 1) == pytest.approx(15.0)
        assert tables.tau_path(0, 1) == [0, 2, 3, 1]
        assert tables.bs_sigma(0, 1) == pytest.approx(1.0)
        assert tables.sigma_path(0, 1) == [0, 1]
