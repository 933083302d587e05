"""Property-based tests for pre-processing invariants."""

import numpy as np
from hypothesis import HealthCheck, given, settings

from repro.core.route import Route
from repro.prep.dijkstra import all_pairs_two_criteria, reconstruct_path
from repro.prep.tables import CostTables

from tests.floyd_warshall import floyd_warshall_two_criteria
from tests.strategies import small_graphs

SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def assert_secondaries_walk_their_paths(graph, which, primary, secondary, pred) -> None:
    """Every stored secondary is the one of the path *pred* describes."""
    for i in range(graph.num_nodes):
        for j in range(graph.num_nodes):
            if i == j or not np.isfinite(primary[i, j]):
                continue
            route = Route.from_nodes(graph, reconstruct_path(pred[i], i, j))
            walked = route.budget_score if which == "objective" else route.objective_score
            assert abs(walked - secondary[i, j]) < 1e-9


class TestBackendAgreement:
    @SLOW
    @given(small_graphs(max_nodes=6))
    def test_fw_and_dijkstra_agree(self, graph):
        for which in ("objective", "budget"):
            fw_primary, fw_secondary, fw_pred = floyd_warshall_two_criteria(graph, which)
            dj_primary, dj_secondary, dj_pred = all_pairs_two_criteria(graph, which)
            np.testing.assert_allclose(dj_primary, fw_primary, rtol=1e-9, atol=1e-12)
            # Under a primary tie the builder keeps scipy's path and the
            # reference the lexicographic one, so the secondaries may
            # differ — but never with the reference's above the builder's.
            tied = np.isfinite(fw_primary) & (dj_primary == fw_primary)
            assert np.all(fw_secondary[tied] <= dj_secondary[tied] + 1e-9)
            # Whichever path each kept, its secondary is that path's own.
            assert_secondaries_walk_their_paths(graph, which, fw_primary, fw_secondary, fw_pred)
            assert_secondaries_walk_their_paths(graph, which, dj_primary, dj_secondary, dj_pred)


class TestTableInvariants:
    @SLOW
    @given(small_graphs())
    def test_validate_passes_on_fresh_tables(self, graph):
        CostTables.from_graph(graph).validate()

    @SLOW
    @given(small_graphs())
    def test_tau_objective_minimality_and_sigma_budget_minimality(self, graph):
        tables = CostTables.from_graph(graph)
        finite = np.isfinite(tables.os_tau)
        assert np.all(tables.os_tau[finite] <= tables.os_sigma[finite] + 1e-9)
        assert np.all(tables.bs_sigma[finite] <= tables.bs_tau[finite] + 1e-9)

    @SLOW
    @given(small_graphs())
    def test_triangle_inequality_on_tau(self, graph):
        """OS(tau_{i,t}) <= o(i,j) + OS(tau_{j,t}) — the admissibility that
        Lemma 3 and the LOW-prune rely on."""
        tables = CostTables.from_graph(graph)
        n = graph.num_nodes
        for t in range(n):
            column = tables.os_tau[:, t]
            for u in range(n):
                for v, objective, _budget in graph.out_edges(u):
                    if np.isfinite(column[v]):
                        assert column[u] <= objective + column[v] + 1e-9

    @SLOW
    @given(small_graphs())
    def test_paths_reconstruct_to_their_scores(self, graph):
        tables = CostTables.from_graph(graph)
        n = graph.num_nodes
        for i in range(n):
            for j in range(n):
                if i == j or not tables.reachable(i, j):
                    continue
                tau = Route.from_nodes(graph, tables.tau_path(i, j))
                assert tau.objective_score == np.float64(tables.os_tau[i, j]) or abs(
                    tau.objective_score - tables.os_tau[i, j]
                ) < 1e-9
                sigma = Route.from_nodes(graph, tables.sigma_path(i, j))
                assert abs(sigma.budget_score - tables.bs_sigma[i, j]) < 1e-9
