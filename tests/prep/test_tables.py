"""Tests for the CostTables container (paper §3.1 pre-processing)."""

import numpy as np
import pytest

from repro.exceptions import PrepError
from repro.graph.generators import figure_1_graph, grid_graph
from repro.prep.tables import CostTables

from tests.floyd_warshall import floyd_warshall_two_criteria


@pytest.fixture(scope="module")
def tables():
    return CostTables.from_graph(figure_1_graph())


class TestConstruction:
    def test_builder_matches_reference(self, tables):
        graph = figure_1_graph()
        os_tau, bs_tau, pred_tau = floyd_warshall_two_criteria(graph, "objective")
        bs_sigma, os_sigma, pred_sigma = floyd_warshall_two_criteria(graph, "budget")
        reference = dict(
            os_tau=os_tau,
            bs_tau=bs_tau,
            os_sigma=os_sigma,
            bs_sigma=bs_sigma,
            pred_tau=pred_tau,
            pred_sigma=pred_sigma,
        )
        for name, expected in reference.items():
            np.testing.assert_array_equal(getattr(tables, name), expected)

    def test_predecessors_optional(self):
        tables = CostTables.from_graph(figure_1_graph(), predecessors=False)
        assert not tables.has_paths
        with pytest.raises(PrepError, match="predecessors=False"):
            tables.tau_path(0, 7)

    def test_shape_mismatch_rejected(self, tables):
        with pytest.raises(PrepError, match="shape"):
            CostTables(
                os_tau=tables.os_tau,
                bs_tau=tables.bs_tau[:4, :4],
                os_sigma=tables.os_sigma,
                bs_sigma=tables.bs_sigma,
            )

    def test_float_predecessors_rejected(self, tables):
        with pytest.raises(PrepError, match="integer"):
            CostTables(
                os_tau=tables.os_tau,
                bs_tau=tables.bs_tau,
                os_sigma=tables.os_sigma,
                bs_sigma=tables.bs_sigma,
                pred_tau=tables.pred_tau.astype(np.float64),
                pred_sigma=tables.pred_sigma,
            )


class TestAccessProtocol:
    def test_columns_are_views_of_matrices(self, tables):
        np.testing.assert_array_equal(tables.os_tau_col(7), tables.os_tau[:, 7])
        np.testing.assert_array_equal(tables.bs_sigma_col(7), tables.bs_sigma[:, 7])

    def test_rows(self, tables):
        np.testing.assert_array_equal(tables.os_sigma_row(0), tables.os_sigma[0, :])
        np.testing.assert_array_equal(tables.bs_tau_row(0), tables.bs_tau[0, :])

    def test_reachable(self, tables):
        assert tables.reachable(0, 7)
        assert not tables.reachable(7, 0)  # v7 is a sink in Figure 1

    def test_paths_match_paper(self, tables):
        assert tables.tau_path(0, 7) == [0, 3, 4, 7]
        assert tables.sigma_path(0, 7) == [0, 3, 5, 7]


class TestValidate:
    def test_valid_tables_pass(self, tables):
        tables.validate()

    def test_tau_sigma_inversion_detected(self, tables):
        broken = CostTables(
            os_tau=tables.os_sigma.copy(),
            bs_tau=tables.bs_sigma.copy(),
            os_sigma=tables.os_tau.copy(),
            bs_sigma=tables.bs_tau.copy(),
        )
        with pytest.raises(PrepError):
            broken.validate()

    def test_nonzero_diagonal_detected(self, tables):
        corrupted = CostTables(
            os_tau=tables.os_tau.copy(),
            bs_tau=tables.bs_tau.copy(),
            os_sigma=tables.os_sigma.copy(),
            bs_sigma=tables.bs_sigma.copy(),
        )
        corrupted.os_tau[2, 2] = 5.0
        with pytest.raises(PrepError, match="diagonal"):
            corrupted.validate()


class TestPersistence:
    def test_round_trip_with_paths(self, tables, tmp_path):
        path = tmp_path / "tables.npz"
        tables.save(path)
        loaded = CostTables.load(path)
        for name in ("os_tau", "bs_tau", "os_sigma", "bs_sigma"):
            np.testing.assert_array_equal(getattr(loaded, name), getattr(tables, name))
        assert loaded.tau_path(0, 7) == tables.tau_path(0, 7)

    def test_round_trip_without_paths(self, tmp_path):
        tables = CostTables.from_graph(grid_graph(3, 3), predecessors=False)
        path = tmp_path / "tables.npz"
        tables.save(path)
        assert not CostTables.load(path).has_paths

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(PrepError, match="cannot read"):
            CostTables.load(tmp_path / "missing.npz")

    def test_incomplete_archive_raises(self, tmp_path):
        path = tmp_path / "partial.npz"
        np.savez(path, os_tau=np.zeros((2, 2)))
        with pytest.raises(PrepError, match="misses arrays"):
            CostTables.load(path)

    @staticmethod
    def save_with(path, tables, **predecessors):
        np.savez(
            path,
            os_tau=tables.os_tau,
            bs_tau=tables.bs_tau,
            os_sigma=tables.os_sigma,
            bs_sigma=tables.bs_sigma,
            **predecessors,
        )

    def test_predecessors_of_the_wrong_shape_raise_on_load(self, tables, tmp_path):
        path = tmp_path / "small_pred.npz"
        self.save_with(path, tables, pred_tau=tables.pred_tau[:4, :4], pred_sigma=tables.pred_sigma)
        with pytest.raises(PrepError, match="pred_tau has shape"):
            CostTables.load(path)

    def test_one_predecessor_matrix_alone_raises_on_load(self, tables, tmp_path):
        path = tmp_path / "tau_pred_only.npz"
        self.save_with(path, tables, pred_tau=tables.pred_tau)
        with pytest.raises(PrepError, match="together"):
            CostTables.load(path)
