"""The paper's evaluation (Section 4) as one table of figures.

Every figure is a :class:`Figure` row: an x-axis sweep, one series per
paper legend name, a metric and the check its result must pass.  A
series maps each x to the measurement *cells* behind that point — one
``(algorithm, keywords, delta, params)`` run over one cached query set —
and :func:`run_figure` reports the mean of the metric over those cells.
Three figures are not such grids (top-k, the strategy ablation with its
own query set and the partitioned tables); their rows carry a short
``measure`` function instead.  ``all_experiments()`` is the table;
``run_figure(row).to_table()`` renders the rows the paper plots.

Cells go through a module-level cache, so figures sharing measurements
(e.g. Figure 4 and Figure 10 both consume the keyword-sweep grid) never
recompute them.

Conventions carried over from the paper:

* default parameters ``eps = 0.5``, ``beta = 1.2``, ``alpha = 0.5``;
* relative ratios are measured against OSScaling at ``eps = 0.1``
  (Section 4.2.2's protocol — the exact optimum is intractable);
* Figure 12/13's x-axis follows the paper's *experimental* reading of
  alpha (larger alpha = more budget-driven = fewer failures), which
  contradicts Equation 1 as printed (it weighs the objective by alpha);
  the engine receives ``alpha_eq1 = 1 - alpha_figure``.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field
from functools import partial
from pathlib import Path
from typing import Any, Callable

from repro.bench.harness import (
    RunSummary,
    failure_percentage,
    relative_ratio,
    run_query_set,
)
from repro.bench.reporting import render_table, save_json
from repro.bench.workloads import (
    FLICKR_DELTAS,
    KEYWORD_COUNTS,
    ROAD_DEFAULT_DELTA,
    ROAD_DELTAS,
    Workload,
    bench_num_queries,
    flickr_workload,
    road_default_size,
    road_sizes,
    road_workload,
)

__all__ = [
    "LEGEND",
    "ExperimentResult",
    "Figure",
    "all_experiments",
    "cell",
    "cell_summary",
    "clear_cell_cache",
    "run_figure",
]

#: Default knobs shared across experiments (paper Section 4.2.1).
DEFAULT_EPSILON = 0.5
DEFAULT_BETA = 1.2
DEFAULT_ALPHA = 0.5
#: Ratio base (Section 4.2.2): OSScaling at eps = 0.1.
BASE_EPSILON = 0.1

#: Paper legend name -> engine algorithm and its default parameters.
LEGEND: dict[str, tuple[str, dict]] = {
    "OSScaling": ("osscaling", {"epsilon": DEFAULT_EPSILON}),
    "BucketBound": ("bucketbound", {"epsilon": DEFAULT_EPSILON, "beta": DEFAULT_BETA}),
    "Greedy-1": ("greedy", {"alpha": DEFAULT_ALPHA}),
    "Greedy-2": ("greedy2", {"alpha": DEFAULT_ALPHA}),
}

#: The four algorithms of every runtime figure, in the paper's legend order.
RUNTIME_ALGORITHMS = ("OSScaling", "BucketBound", "Greedy-2", "Greedy-1")
#: The fast algorithms whose accuracy Figures 10-11 plot.
RATIO_ALGORITHMS = ("BucketBound", "Greedy-2", "Greedy-1")

#: One algorithm over one query set: ``(algorithm, keywords, delta, params)``.
Cell = tuple[str, int, float, dict]


@dataclass
class ExperimentResult:
    """A reproduced figure: x-axis plus one series per algorithm."""

    figure: str
    title: str
    x_name: str
    xs: list
    y_name: str
    series: dict[str, list[float]]
    notes: str = ""
    meta: dict = field(default_factory=dict)

    def to_table(self) -> str:
        """Fixed-width text table mirroring the paper's plotted series."""
        return render_table(
            title=f"{self.figure}: {self.title}",
            x_name=self.x_name,
            xs=self.xs,
            series=self.series,
            y_name=self.y_name,
            notes=self.notes,
        )

    def save(self, directory: str | Path) -> Path:
        """Write ``<figure>.json`` and ``<figure>.txt`` under *directory*."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        save_json(directory / f"{self.figure}.json", asdict(self))
        (directory / f"{self.figure}.txt").write_text(self.to_table())
        return directory / f"{self.figure}.json"


# ----------------------------------------------------------------------
# measurement cells (cached)
# ----------------------------------------------------------------------

_CELLS: dict[tuple, RunSummary] = {}


def clear_cell_cache() -> None:
    """Forget every cached measurement (use after changing env knobs)."""
    _CELLS.clear()


def cell_summary(
    workload: Workload,
    algorithm: str,
    num_keywords: int,
    delta: float,
    **params,
) -> RunSummary:
    """Run (or recall) one algorithm over one cached query set."""
    key = (
        workload.name,
        algorithm,
        num_keywords,
        round(delta, 6),
        tuple(sorted(params.items())),
    )
    cached = _CELLS.get(key)
    if cached is None:
        queries = workload.query_set(num_keywords, delta)
        cached = run_query_set(workload.engine, queries, algorithm, **params)
        _CELLS[key] = cached
    return cached


def cell(name: str, num_keywords: int, delta: float, **overrides) -> Cell:
    """Legend *name*'s cell: its default params with *overrides* on top."""
    algorithm, params = LEGEND[name]
    return algorithm, num_keywords, delta, {**params, **overrides}


def _summary(workload: Workload, c: Cell) -> RunSummary:
    algorithm, num_keywords, delta, params = c
    return cell_summary(workload, algorithm, num_keywords, delta, **params)


def _base(workload: Workload, c: Cell) -> RunSummary:
    """The ratio base: OSScaling at eps = 0.1 on the cell's query set."""
    return cell_summary(workload, "osscaling", c[1], c[2], epsilon=BASE_EPSILON)


def _labels_per_query(workload: Workload, c: Cell) -> float:
    summary = _summary(workload, c)
    return sum(o.labels_created for o in summary.outcomes) / max(summary.total, 1)


#: Metric name -> the value of one cell.
METRICS: dict[str, Callable[[Workload, Cell], float]] = {
    "runtime": lambda w, c: _summary(w, c).mean_runtime_ms,
    "ratio": lambda w, c: relative_ratio(_summary(w, c), _base(w, c)),
    "failure": lambda w, c: failure_percentage(_summary(w, c), _base(w, c)),
    "labels/query": _labels_per_query,
}


def _mean(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else float("nan")


# ----------------------------------------------------------------------
# the table and its runner
# ----------------------------------------------------------------------


def _flickr(_x) -> Workload:
    return flickr_workload()


def _passes(_result: ExperimentResult) -> bool:
    return True


@dataclass(frozen=True)
class Figure:
    """One figure of the evaluation: a sweep, its series, metric and check.

    ``name`` is what ``run_all.py --only`` matches; ``figure`` names the
    saved files.  ``notes`` is formatted with ``w`` (the workload of the
    first x) and the note fields a ``measure`` function returns.
    """

    name: str
    figure: str
    title: str
    x_name: str
    xs: tuple
    y_name: str
    notes: str
    #: Legend name -> (x -> the cells averaged into that point).
    series: dict[str, Callable[[Any], list[Cell]]] = field(default_factory=dict)
    #: A key of :data:`METRICS`.
    metric: str = "runtime"
    workload: Callable[[Any], Workload] = _flickr
    #: Non-grid rows: ``(workload, xs) -> (series, note fields)``.
    measure: Callable[[Workload, list], tuple[dict, dict]] | None = None
    #: What the paper (or the construction) guarantees of the result.
    check: Callable[[ExperimentResult], bool] = _passes

    def holds(self, result: ExperimentResult) -> bool:
        """The row's check, plus one value per x in every declared series."""
        return (
            result.xs == list(self.xs)
            and (not self.series or list(result.series) == list(self.series))
            and all(len(values) == len(self.xs) for values in result.series.values())
            and self.check(result)
        )


def run_figure(row: Figure) -> ExperimentResult:
    """Measure one row: each point is its metric's mean over its cells."""
    xs = list(row.xs)
    workload = row.workload(xs[0])
    if row.measure is not None:
        series, fields = row.measure(workload, xs)
    else:
        metric = METRICS[row.metric]
        series, fields = {}, {}
        for name, cells in row.series.items():
            series[name] = [_mean([metric(row.workload(x), c) for c in cells(x)]) for x in xs]
    return ExperimentResult(
        figure=row.figure,
        title=row.title,
        x_name=row.x_name,
        xs=xs,
        y_name=row.y_name,
        series=series,
        notes=row.notes.format(w=workload, **fields),
    )


def _legend(names: tuple[str, ...], cells: Callable[[str, Any], list[Cell]]) -> dict:
    """One series per legend name; ``cells(name, x)`` lists a point's cells."""
    return {name: partial(cells, name) for name in names}


def _below(name: str, bound: Callable[[Any], float]) -> Callable[[ExperimentResult], bool]:
    """Every defined point of series *name* stays under ``bound(x)``."""

    def check(result: ExperimentResult) -> bool:
        points = zip(result.xs, result.series[name])
        # NaN (no query feasible under both runs) has no ratio to bound.
        return all(value < bound(x) + 1e-6 for x, value in points if value == value)

    return check


def _percentages(result: ExperimentResult) -> bool:
    return all(0.0 <= v <= 100.0 for values in result.series.values() for v in values)


# ----------------------------------------------------------------------
# the rows that are not grids
# ----------------------------------------------------------------------


def _topk_runtime(workload: Workload, ks: list) -> tuple[dict, dict]:
    """Figure 16: KkR wall clock per query over the keyword battery."""
    series: dict[str, list[float]] = {"OSScaling": [], "BucketBound": []}
    for k in ks:
        for name, values in series.items():
            algorithm, params = LEGEND[name]
            total = 0.0
            count = 0
            for num_keywords in KEYWORD_COUNTS:
                for q in workload.query_set(num_keywords, 6.0):
                    args = (q.source, q.target, q.keywords, q.budget_limit)
                    begin = time.perf_counter()
                    workload.engine.top_k(*args, k=k, algorithm=algorithm, **params)
                    total += time.perf_counter() - begin
                    count += 1
            values.append(1000.0 * total / count)
    return series, {}


#: The strategy ablation's configurations, by x label.
STRATEGY_CONFIGS = {
    "both strategies": {"use_strategy1": True, "use_strategy2": True},
    "strategy 1 only": {"use_strategy1": True, "use_strategy2": False},
    "strategy 2 only": {"use_strategy1": False, "use_strategy2": True},
    "no strategies": {"use_strategy1": False, "use_strategy2": False},
}


def _strategy_runtime(workload: Workload, configs: list) -> tuple[dict, dict]:
    """A1: Section 4.2.1 claims the optimisation strategies buy 3-5x.

    The strategies target queries with *infrequent* keywords (Strategy 2
    explicitly so; Strategy 1's early-feasible jumps matter most when
    ordinary expansion takes long to cover a rare word), so this ablation
    uses a dedicated query set drawn without the default common-word
    screen: keywords sampled uniformly over the vocabulary with df >= 2.
    """
    from repro.datasets.queries import QuerySetConfig, generate_query_set

    config = QuerySetConfig(
        num_queries=bench_num_queries(),
        num_keywords=6,
        budget_limit=6.0,
        max_sigma_fraction=0.5,
        min_document_frequency=2,
        frequency_weighted=False,
        seed=1735,
    )
    engine = workload.engine
    queries = generate_query_set(workload.graph, engine.index, config, tables=engine.tables)
    series: dict[str, list[float]] = {"OSScaling": [], "BucketBound": []}
    for x in configs:
        for name, values in series.items():
            algorithm, params = LEGEND[name]
            summary = run_query_set(engine, queries, algorithm, **params, **STRATEGY_CONFIGS[x])
            values.append(summary.mean_runtime_ms)
    return series, {}


def _partition_tables(workload: Workload, _metrics: list) -> tuple[dict, dict]:
    """A2: flat vs partitioned pre-processing (paper future work, §6).

    Reports build time, score memory and the mean relative deviation of
    the assembled ``BS(sigma)`` scores — the assembly is exact (see
    :mod:`repro.prep.partition`), so the deviation column doubles as an
    end-to-end verification and should read ~0.
    """
    import numpy as np

    from repro.prep.partition import PartitionedCostTables
    from repro.prep.tables import CostTables

    graph = workload.graph
    begin = time.perf_counter()
    flat = CostTables.from_graph(graph, predecessors=False)
    flat_seconds = time.perf_counter() - begin
    begin = time.perf_counter()
    partitioned = PartitionedCostTables.from_graph(graph)
    part_seconds = time.perf_counter() - begin

    rng = np.random.default_rng(7)
    inflations = []
    for t in rng.integers(0, graph.num_nodes, size=8):
        reference = flat.bs_sigma_col(int(t))
        assembled = partitioned.bs_sigma_col(int(t))
        finite = np.isfinite(reference) & (reference > 0)
        deviation = (assembled[finite] - reference[finite]) / reference[finite]
        inflations.append(float(np.mean(deviation)))
    names = ("os_tau", "bs_tau", "os_sigma", "bs_sigma")
    flat_bytes = sum(getattr(flat, name).nbytes for name in names)
    series = {
        "flat": [flat_seconds, flat_bytes / 1e6, 0.0],
        # Exact assembly: the inflation reads ~0.
        "partitioned": [part_seconds, partitioned.memory_bytes() / 1e6, _mean(inflations)],
    }
    partition = partitioned.partition
    return series, {"cells": partition.num_cells, "borders": len(partition.border_nodes)}


def _partition_is_smaller_and_exact(result: ExperimentResult) -> bool:
    # Less table memory is the point of the design; the exact assembly
    # neither undercuts nor inflates the flat optimum.
    flat, partitioned = result.series["flat"], result.series["partitioned"]
    return partitioned[1] < flat[1] and abs(partitioned[2]) < 1e-9


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------


def all_experiments() -> list[Figure]:
    """Every figure of the evaluation in paper order, then the ablations.

    Built on each call: the road sweep's sizes follow ``KOR_BENCH_SCALE``.
    """
    epsilons = (0.1, 0.3, 0.5, 0.7, 0.9)
    betas = (1.2, 1.4, 1.6, 1.8, 2.0)
    alphas = (0.0, 0.25, 0.5, 0.75, 1.0)
    equal_bounds = (2.0, 4.0, 6.0, 8.0, 10.0)

    def osscaling_at(eps):
        return [cell("OSScaling", 6, 6.0, epsilon=eps)]

    def bucketbound_at(beta):
        return [cell("BucketBound", 6, 6.0, beta=beta)]

    def road(_x) -> Workload:
        return road_workload(road_default_size())

    # Figures 12-13: x is the paper's experimental alpha; the engine gets 1 - x.
    greedy_alpha = _legend(
        ("Greedy-1", "Greedy-2"),
        lambda n, a: [cell(n, kw, 6.0, alpha=1.0 - a) for kw in KEYWORD_COUNTS],
    )
    # Figures 14-15, for a theoretical bound r: OSScaling at 1/(1-eps) = r,
    # BucketBound (beta = 1.2) at beta/(1-eps) = r.
    equal_bound = {
        "OSScaling": lambda r: osscaling_at(1.0 - 1.0 / r),
        "BucketBound": lambda r: [cell("BucketBound", 6, 6.0, epsilon=1.0 - DEFAULT_BETA / r)],
    }
    # One row per figure, its columns in Figure's field order:
    # name, figure, title / x_name, xs, y_name / notes / series, metric, ...
    # fmt: off
    return [
        Figure("fig04_runtime_vs_keywords", "fig04", "Runtime (Flickr) vs number of query keywords",
               "number of query keywords", KEYWORD_COUNTS, "runtime (ms)",
               f"each point averages over Delta in {FLICKR_DELTAS} km, dataset {{w.name}}",
               _legend(RUNTIME_ALGORITHMS, lambda n, kw: [cell(n, kw, d) for d in FLICKR_DELTAS])),
        Figure("fig05_runtime_vs_budget", "fig05", "Runtime (Flickr) vs budget limit Delta",
               "Delta (km)", FLICKR_DELTAS, "runtime (ms)",
               f"each point averages over keyword counts {KEYWORD_COUNTS}, dataset {{w.name}}",
               _legend(RUNTIME_ALGORITHMS, lambda n, d: [cell(n, kw, d) for kw in KEYWORD_COUNTS])),
        Figure("fig06_runtime_vs_epsilon", "fig06", "OSScaling runtime vs epsilon",
               "epsilon", epsilons, "runtime (ms)",
               "Delta = 6 km, 6 query keywords",
               {"OSScaling": osscaling_at}),
        Figure("fig07_ratio_vs_epsilon", "fig07", "OSScaling relative ratio vs epsilon",
               "epsilon", epsilons, "relative ratio",
               "base: OSScaling eps=0.1; Delta = 6 km, 6 query keywords",
               {"OSScaling": osscaling_at}, "ratio",
               # Theorem 2, for this run and for the eps = 0.1 base.
               check=_below("OSScaling", lambda eps: 1 / (1 - eps) / (1 - BASE_EPSILON))),
        Figure("fig08_runtime_vs_beta", "fig08", "BucketBound runtime vs beta",
               "beta", betas, "runtime (ms)",
               "eps = 0.5, Delta = 6 km, 6 query keywords",
               {"BucketBound": bucketbound_at}),
        Figure("fig09_ratio_vs_beta", "fig09", "BucketBound relative ratio vs beta",
               "beta", betas, "relative ratio",
               "base: OSScaling eps=0.1; eps = 0.5, Delta = 6 km, 6 query keywords",
               {"BucketBound": bucketbound_at}, "ratio",
               # Theorem 3: beta/(1-eps).
               check=_below("BucketBound", lambda beta: beta / (1 - DEFAULT_EPSILON))),
        Figure("fig10_ratio_vs_keywords", "fig10", "Relative ratio vs number of query keywords",
               "number of query keywords", KEYWORD_COUNTS, "relative ratio",
               "base: OSScaling eps=0.1; Delta = 6 km; greedy ratios measured "
               "on the queries each greedy solves (paper protocol)",
               _legend(RATIO_ALGORITHMS, lambda n, kw: [cell(n, kw, 6.0)]), "ratio",
               check=_below("BucketBound", lambda _kw: DEFAULT_BETA / (1 - DEFAULT_EPSILON))),
        Figure("fig11_ratio_vs_budget", "fig11", "Relative ratio vs budget limit Delta",
               "Delta (km)", FLICKR_DELTAS, "relative ratio",
               "base: OSScaling eps=0.1; 6 query keywords",
               _legend(RATIO_ALGORITHMS, lambda n, d: [cell(n, 6, d)]), "ratio"),
        Figure("fig12_ratio_vs_alpha", "fig12", "Greedy relative ratio vs alpha",
               "alpha", alphas, "relative ratio",
               "Delta = 6 km, averaged over keyword counts; alpha follows the "
               "paper's experimental semantics (engine gets 1 - alpha: Equation 1 "
               "as printed weighs the objective by alpha)",
               greedy_alpha, "ratio"),
        Figure("fig13_failure_vs_alpha", "fig13", "Greedy failure percentage vs alpha",
               "alpha", alphas, "failure (%)",
               "failures counted over queries with feasible solutions "
               "(certified by OSScaling eps=0.1), as in the paper",
               greedy_alpha, "failure", check=_percentages),
        Figure("fig14_runtime_equal_bound", "fig14",
               "Runtime at equal theoretical approximation bound",
               "theoretical bound", equal_bounds, "runtime (ms)",
               "OSScaling eps = 1 - 1/bound; BucketBound beta = 1.2, "
               "eps = 1 - beta/bound; Delta = 6 km, 6 keywords",
               equal_bound),
        Figure("fig15_ratio_equal_bound", "fig15",
               "Relative ratio at equal theoretical approximation bound",
               "theoretical bound", equal_bounds, "relative ratio",
               "base: OSScaling eps=0.1; same parameters as fig14",
               equal_bound, "ratio"),
        Figure("fig16_topk_runtime", "fig16", "KkR runtime vs k",
               "k", (1, 2, 3, 4, 5), "runtime (ms)",
               "eps = 0.5, beta = 1.2, Delta = 6 km, averaged over keyword counts",
               measure=_topk_runtime),
        Figure("fig17_scalability", "fig17", "Scalability: runtime vs road-network size",
               "number of nodes", road_sizes(), "runtime (ms)",
               "6 query keywords; Delta = 20 km (paper: 30 km on 5k-20k DIMACS "
               "subgraphs; here synthetic road networks sized by KOR_BENCH_SCALE)",
               _legend(RUNTIME_ALGORITHMS, lambda n, _size: [cell(n, 6, ROAD_DEFAULT_DELTA)]),
               workload=road_workload),
        Figure("fig18_road_runtime_vs_keywords", "fig18",
               "Runtime (road network) vs number of query keywords",
               "number of query keywords", KEYWORD_COUNTS, "runtime (ms)",
               "dataset {w.name}, Delta = {w.default_delta} km",
               _legend(RUNTIME_ALGORITHMS, lambda n, kw: [cell(n, kw, ROAD_DEFAULT_DELTA)]),
               workload=road),
        Figure("fig19_road_runtime_vs_budget", "fig19",
               "Runtime (road network) vs budget limit Delta",
               "Delta (km)", ROAD_DELTAS, "runtime (ms)",
               "dataset {w.name}, 6 query keywords",
               _legend(RUNTIME_ALGORITHMS, lambda n, d: [cell(n, 6, d)]),
               workload=road),
        Figure("ablation_opt_strategies", "ablation_opt_strategies",
               "Optimisation strategies on/off (Section 4.2.1 text)",
               "configuration", tuple(STRATEGY_CONFIGS), "runtime (ms)",
               "Delta = 6 km, 6 uniformly-drawn (rare-leaning) keywords; the "
               "paper reports 3-5x slowdown with both strategies disabled",
               measure=_strategy_runtime,
               check=lambda result: list(result.series) == ["OSScaling", "BucketBound"]),
        Figure("ablation_epsilon_labels", "ablation_epsilon_labels",
               "OSScaling labels created vs epsilon",
               "epsilon", epsilons, "labels",
               "mechanism probe for Figure 6: eps coarsens scaled scores so "
               "domination *can* merge more labels; on this workload objectives "
               "are near-discrete log trip-counts, collisions stay rare, and the "
               "label volume barely reacts",
               {"labels created / query": osscaling_at}, "labels/query"),
        Figure("ablation_partition", "ablation_partition",
               "Flat vs partitioned pre-processing (future work §6)",
               "metric", ("build time (s)", "score memory (MB)", "mean BS(sigma) inflation"),
               "see metric",
               "graph {w.name} ({w.graph.num_nodes} nodes, {cells} cells, {borders} border nodes)",
               workload=lambda _x: road_workload(road_sizes()[0]),
               measure=_partition_tables,
               check=_partition_is_smaller_and_exact),
    ]
    # fmt: on
