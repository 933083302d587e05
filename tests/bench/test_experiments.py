"""Tests for the figure table (repro.bench.experiments).

Runs at the 'small' scale with 2 queries per set.  Workloads and cells
are built once per module (the rows below share most of their cells), so
each row costs what its own new cells cost.  Rows too slow for the suite
at this scale (fig04/05, fig11, fig16-19: 2-137 s each) are only checked
for what they declare; ``benchmarks/bench_figures.py`` runs them.

``tests/golden/figure_series.json`` pins the series of the deterministic
rows (ratios, failure rates, label counts), recorded from the
per-figure functions the table replaced.  Regenerate with
``PYTHONPATH=src python -m tests.bench.test_experiments`` — only on
purpose: a new golden means the reproduced figures changed.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.bench import experiments, workloads

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "figure_series.json"
GOLDEN_FIELDS = ("figure", "title", "x_name", "xs", "y_name", "series")
KEYWORD_COUNTS, FLICKR_DELTAS = workloads.KEYWORD_COUNTS, workloads.FLICKR_DELTAS
RUNTIME = experiments.RUNTIME_ALGORITHMS

#: Rows that run in seconds at the small scale; each must pass its check.
CHEAP_ROWS = (
    "fig06_runtime_vs_epsilon",
    "fig07_ratio_vs_epsilon",
    "fig08_runtime_vs_beta",
    "fig09_ratio_vs_beta",
    "fig10_ratio_vs_keywords",
    "fig12_ratio_vs_alpha",
    "fig13_failure_vs_alpha",
    "fig14_runtime_equal_bound",
    "fig15_ratio_equal_bound",
    "ablation_opt_strategies",
    "ablation_epsilon_labels",
    "ablation_partition",
)


@pytest.fixture(scope="module", autouse=True)
def small_env():
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("KOR_BENCH_SCALE", "small")
        patch.setenv("KOR_BENCH_QUERIES", "2")
        workloads.clear_caches()
        experiments.clear_cell_cache()
        yield
    workloads.clear_caches()
    experiments.clear_cell_cache()


@pytest.fixture(scope="module")
def table(small_env):
    return {row.name: row for row in experiments.all_experiments()}


@pytest.fixture(scope="module")
def result_of(table):
    """``result_of(name)``: the row's result, measured once per module."""
    results = {}

    def result(name):
        if name not in results:
            results[name] = experiments.run_figure(table[name])
        return results[name]

    return result


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

    def test_legend_cells(self):
        workload = workloads.flickr_workload()
        for name in ("OSScaling", "BucketBound", "Greedy-1", "Greedy-2"):
            algorithm, num_keywords, delta, params = experiments.cell(name, 2, 6.0)
            summary = experiments.cell_summary(workload, algorithm, num_keywords, delta, **params)
            assert summary.total == 2
        with pytest.raises(KeyError):
            experiments.cell("Dijkstra", 2, 6.0)

    @pytest.mark.parametrize("metric", ["ratio", "failure"])
    def test_base_is_osscaling_at_eps_0_1(self, metric, monkeypatch):
        # On the small workload eps = 0.1 and 0.2 find the same routes, so
        # the golden series cannot tell the base apart: record the calls.
        calls = []
        run = experiments.cell_summary

        def recording(*args, **params):
            calls.append((args[1:], params))
            return run(*args, **params)

        monkeypatch.setattr(experiments, "cell_summary", recording)
        workload = workloads.flickr_workload()
        experiments.METRICS[metric](workload, experiments.cell("Greedy-1", 4, 9.0))
        assert calls == [
            (("greedy", 4, 9.0), {"alpha": 0.5}),
            (("osscaling", 4, 9.0), {"epsilon": 0.1}),
        ]


class TestExperimentStructure:
    def test_fig06_runtime_series(self, result_of):
        result = result_of("fig06_runtime_vs_epsilon")
        assert result.figure == "fig06"
        assert result.xs == [0.1, 0.3, 0.5, 0.7, 0.9]
        assert len(result.series["OSScaling"]) == len(result.xs)
        assert all(v >= 0 for v in result.series["OSScaling"])

    def test_fig09_ratio_within_theorem3(self, result_of):
        result = result_of("fig09_ratio_vs_beta")
        for beta, ratio in zip(result.xs, result.series["BucketBound"]):
            if ratio == ratio:  # not NaN
                assert ratio <= beta / (1 - 0.5) + 1e-6

    def test_fig13_failure_percentages_bounded(self, result_of):
        result = result_of("fig13_failure_vs_alpha")
        for series in result.series.values():
            assert all(0.0 <= value <= 100.0 for value in series)

    def test_equal_bound_parameters(self, table):
        series = table["fig14_runtime_equal_bound"].series
        [(algorithm, _, _, params)] = series["OSScaling"](2.0)
        assert algorithm == "osscaling"
        assert params["epsilon"] == pytest.approx(0.5)  # 1/(1-eps) = 2
        [(algorithm, _, _, params)] = series["BucketBound"](2.0)
        assert algorithm == "bucketbound"
        assert params["beta"] / (1 - params["epsilon"]) == pytest.approx(2.0)

    def test_save_round_trip(self, result_of, tmp_path):
        result = result_of("fig06_runtime_vs_epsilon")
        path = result.save(tmp_path)
        loaded = json.loads(path.read_text())
        assert loaded["figure"] == "fig06"
        assert loaded["xs"] == list(result.xs)
        assert (tmp_path / "fig06.txt").exists()

    def test_to_table_mentions_figure(self, result_of):
        assert "fig06" in result_of("fig06_runtime_vs_epsilon").to_table()

    def test_all_experiments_are_the_paper_figures_in_order(self, table):
        names = list(table)
        assert [name[:5] for name in names[:16]] == [f"fig{i:02d}" for i in range(4, 20)]
        assert names[16:] == [
            "ablation_opt_strategies",
            "ablation_epsilon_labels",
            "ablation_partition",
        ]
        assert len({row.figure for row in table.values()}) == 19


class TestGolden:
    @pytest.mark.parametrize("figure", sorted(json.loads(GOLDEN_PATH.read_text())))
    def test_table_reproduces_the_golden_series(self, figure, table, result_of, tmp_path):
        [name] = [row.name for row in table.values() if row.figure == figure]
        # Through the saved JSON: NaN is null, floats round-trip bitwise.
        saved = json.loads(result_of(name).save(tmp_path).read_text())
        golden = json.loads(GOLDEN_PATH.read_text())[figure]
        assert {field: saved[field] for field in GOLDEN_FIELDS} == golden


class TestChecks:
    @pytest.mark.parametrize("name", CHEAP_ROWS)
    def test_row_passes_its_check(self, name, table, result_of):
        result = result_of(name)
        assert table[name].holds(result), result.to_table()

    @pytest.mark.parametrize(
        "name, series, index, value",
        [
            ("fig07_ratio_vs_epsilon", "OSScaling", 0, 1.3),  # bound 1/0.9/0.9
            ("fig09_ratio_vs_beta", "BucketBound", 0, 2.5),  # bound 1.2/0.5
            ("fig10_ratio_vs_keywords", "BucketBound", 0, 2.5),
            ("fig13_failure_vs_alpha", "Greedy-1", 0, 100.5),
            ("fig13_failure_vs_alpha", "Greedy-2", 4, -1.0),
            ("ablation_partition", "partitioned", 1, 1e9),  # more MB than flat
            ("ablation_partition", "partitioned", 2, 1e-6),  # inexact assembly
        ],
    )
    def test_check_rejects_a_violation(self, name, series, index, value, table, result_of):
        result = copy.deepcopy(result_of(name))
        result.series[series][index] = value
        assert not table[name].holds(result)

    def test_shape_is_checked(self, table, result_of):
        row = table["fig06_runtime_vs_epsilon"]
        short = copy.deepcopy(result_of(row.name))
        short.series["OSScaling"].pop()
        renamed = copy.deepcopy(result_of(row.name))
        renamed.series = {"BucketBound": renamed.series["OSScaling"]}
        moved = copy.deepcopy(result_of(row.name))
        moved.xs = moved.xs[::-1]
        assert not any(row.holds(result) for result in (short, renamed, moved))

    @pytest.mark.parametrize(
        "name, xs, series",
        [
            ("fig04_runtime_vs_keywords", KEYWORD_COUNTS, RUNTIME),
            ("fig05_runtime_vs_budget", FLICKR_DELTAS, RUNTIME),
            ("fig11_ratio_vs_budget", FLICKR_DELTAS, ("BucketBound", "Greedy-2", "Greedy-1")),
            ("fig16_topk_runtime", (1, 2, 3, 4, 5), ()),
            ("fig17_scalability", (500, 1000, 1500, 2000), RUNTIME),
            ("fig18_road_runtime_vs_keywords", KEYWORD_COUNTS, RUNTIME),
            ("fig19_road_runtime_vs_budget", workloads.ROAD_DELTAS, RUNTIME),
        ],
    )
    def test_slow_rows_declare_their_sweep_and_series(self, name, xs, series, table):
        row = table[name]
        assert row.xs == xs
        assert tuple(row.series) == series


if __name__ == "__main__":
    import os

    from repro.bench.reporting import save_json

    os.environ.update(KOR_BENCH_SCALE="small", KOR_BENCH_QUERIES="2")
    rows = {row.figure: row for row in experiments.all_experiments()}
    golden = json.loads(GOLDEN_PATH.read_text())
    for figure in golden:
        result = experiments.run_figure(rows[figure])
        golden[figure] = {field: getattr(result, field) for field in GOLDEN_FIELDS}
    save_json(GOLDEN_PATH, golden)
    print(f"wrote {GOLDEN_PATH}")
