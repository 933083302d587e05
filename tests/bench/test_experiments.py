"""Tests for the experiment layer (repro.bench.experiments).

Uses the tiny 'small' scale with 2 queries per set so each experiment
runs in seconds; shapes are asserted on structure, not absolute numbers.
"""

import json

import pytest

from repro.bench import experiments, workloads


@pytest.fixture(autouse=True)
def small_env(monkeypatch):
    monkeypatch.setenv("KOR_BENCH_SCALE", "small")
    monkeypatch.setenv("KOR_BENCH_QUERIES", "2")
    workloads.clear_caches()
    experiments.clear_cell_cache()
    yield
    workloads.clear_caches()
    experiments.clear_cell_cache()


class TestCellCache:
    def test_cells_are_cached(self):
        workload = workloads.flickr_workload()
        a = experiments.cell_summary(workload, "greedy", 2, 6.0, alpha=0.5)
        b = experiments.cell_summary(workload, "greedy", 2, 6.0, alpha=0.5)
        assert a is b

    def test_distinct_params_distinct_cells(self):
        workload = workloads.flickr_workload()
        a = experiments.cell_summary(workload, "greedy", 2, 6.0, alpha=0.5)
        b = experiments.cell_summary(workload, "greedy", 2, 6.0, alpha=0.0)
        assert a is not b

    def test_named_cell_dispatch(self):
        workload = workloads.flickr_workload()
        for name in ("OSScaling", "BucketBound", "Greedy-1", "Greedy-2"):
            summary = experiments.named_cell(workload, name, 2, 6.0)
            assert summary.total == 2
        with pytest.raises(ValueError):
            experiments.named_cell(workload, "Dijkstra", 2, 6.0)


class TestExperimentStructure:
    def test_fig06_runtime_series(self):
        result = experiments.fig06_runtime_vs_epsilon()
        assert result.figure == "fig06"
        assert list(result.xs) == list(experiments.EPSILONS)
        assert len(result.series["OSScaling"]) == len(result.xs)
        assert all(v >= 0 for v in result.series["OSScaling"])

    def test_fig09_ratio_within_theorem3(self):
        result = experiments.fig09_ratio_vs_beta()
        for beta, ratio in zip(result.xs, result.series["BucketBound"]):
            if ratio == ratio:  # not NaN
                assert ratio <= beta / (1 - 0.5) + 1e-6

    def test_fig13_failure_percentages_bounded(self):
        result = experiments.fig13_failure_vs_alpha()
        for series in result.series.values():
            assert all(0.0 <= value <= 100.0 for value in series)

    def test_equal_bound_parameters(self):
        eps_os, eps_bb, beta = experiments._equal_bound_params(2.0)
        assert eps_os == pytest.approx(0.5)      # 1/(1-eps) = 2
        assert beta / (1 - eps_bb) == pytest.approx(2.0)

    def test_save_round_trip(self, tmp_path):
        result = experiments.fig06_runtime_vs_epsilon()
        path = result.save(tmp_path)
        loaded = json.loads(path.read_text())
        assert loaded["figure"] == "fig06"
        assert loaded["xs"] == list(result.xs)
        assert (tmp_path / "fig06.txt").exists()

    def test_to_table_mentions_figure(self):
        result = experiments.fig06_runtime_vs_epsilon()
        assert "fig06" in result.to_table()

    def test_all_experiments_are_the_paper_figures_in_order(self):
        names = [experiment.__name__ for experiment in experiments.all_experiments()]
        assert [name[:5] for name in names[:16]] == [f"fig{i:02d}" for i in range(4, 20)]
        assert names[16:] == [
            "ablation_opt_strategies",
            "ablation_epsilon_labels",
            "ablation_partition",
            "ablation_disk_index",
        ]
        assert set(names) <= set(experiments.__all__)
