"""One function per figure of the paper's evaluation (Section 4).

Every function returns an :class:`ExperimentResult` holding the x-axis,
the per-algorithm series and provenance notes; ``result.to_table()``
renders the same rows the paper plots.  Heavy work (running an algorithm
over a query set) goes through a module-level cell cache so that figures
sharing measurements (e.g. Figure 4 and Figure 10 both consume the
keyword-sweep grid) never recompute them.

Conventions carried over from the paper:

* default parameters ``eps = 0.5``, ``beta = 1.2``, ``alpha = 0.5``;
* relative ratios are measured against OSScaling at ``eps = 0.1``
  (Section 4.2.2's protocol — the exact optimum is intractable);
* Figure 12/13's x-axis follows the paper's *experimental* reading of
  alpha (larger alpha = more budget-driven = fewer failures), which
  contradicts Equation 1 as printed; we map ``alpha_figure =
  1 - alpha_eq1`` and document the discrepancy in DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from pathlib import Path

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
    ROAD_DELTAS,
    Workload,
    flickr_workload,
    road_default_size,
    road_sizes,
    road_workload,
)

__all__ = [
    "ExperimentResult",
    "fig04_runtime_vs_keywords",
    "fig05_runtime_vs_budget",
    "fig06_runtime_vs_epsilon",
    "fig07_ratio_vs_epsilon",
    "fig08_runtime_vs_beta",
    "fig09_ratio_vs_beta",
    "fig10_ratio_vs_keywords",
    "fig11_ratio_vs_budget",
    "fig12_ratio_vs_alpha",
    "fig13_failure_vs_alpha",
    "fig14_runtime_equal_bound",
    "fig15_ratio_equal_bound",
    "fig16_topk_runtime",
    "fig17_scalability",
    "fig18_road_runtime_vs_keywords",
    "fig19_road_runtime_vs_budget",
    "ablation_opt_strategies",
    "ablation_epsilon_labels",
    "kernel_throughput",
    "sharded_wave_throughput",
    "service_throughput",
    "sharded_throughput",
    "border_heavy_throughput",
    "async_throughput",
    "sharded_memory",
    "update_latency",
    "all_experiments",
    "clear_cell_cache",
]

#: Default knobs shared across experiments (paper Section 4.2.1).
DEFAULT_EPSILON = 0.5
DEFAULT_BETA = 1.2
DEFAULT_ALPHA = 0.5
#: Ratio base (Section 4.2.2): OSScaling at eps = 0.1.
BASE_EPSILON = 0.1

#: The four algorithms of every runtime figure, in the paper's legend order.
RUNTIME_ALGORITHMS = ("OSScaling", "BucketBound", "Greedy-2", "Greedy-1")


@dataclass
class ExperimentResult:
    """A reproduced figure: x-axis plus one series per algorithm."""

    figure: str
    title: str
    x_name: str
    xs: list
    series: dict[str, list[float]]
    y_name: str = "value"
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
        payload = {
            "figure": self.figure,
            "title": self.title,
            "x_name": self.x_name,
            "xs": self.xs,
            "y_name": self.y_name,
            "series": self.series,
            "notes": self.notes,
            "meta": self.meta,
        }
        save_json(directory / f"{self.figure}.json", payload)
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


def base_cell(workload: Workload, num_keywords: int, delta: float) -> RunSummary:
    """The ratio base: OSScaling at eps = 0.1 on the same query set."""
    return cell_summary(workload, "osscaling", num_keywords, delta, epsilon=BASE_EPSILON)


def named_cell(
    workload: Workload, name: str, num_keywords: int, delta: float
) -> RunSummary:
    """Dispatch a paper legend name to an engine call with default knobs."""
    if name == "OSScaling":
        return cell_summary(workload, "osscaling", num_keywords, delta, epsilon=DEFAULT_EPSILON)
    if name == "BucketBound":
        return cell_summary(
            workload,
            "bucketbound",
            num_keywords,
            delta,
            epsilon=DEFAULT_EPSILON,
            beta=DEFAULT_BETA,
        )
    if name == "Greedy-1":
        return cell_summary(workload, "greedy", num_keywords, delta, alpha=DEFAULT_ALPHA)
    if name == "Greedy-2":
        return cell_summary(workload, "greedy2", num_keywords, delta, alpha=DEFAULT_ALPHA)
    raise ValueError(f"unknown algorithm name {name!r}")


def _mean(values: list[float]) -> float:
    finite = [v for v in values if not math.isnan(v)]
    return sum(finite) / len(finite) if finite else float("nan")


# ----------------------------------------------------------------------
# Figures 4-5: runtime on the Flickr graph
# ----------------------------------------------------------------------

def fig04_runtime_vs_keywords(workload: Workload | None = None) -> ExperimentResult:
    """Figure 4: runtime vs #keywords, averaged over the Delta sweep."""
    workload = workload or flickr_workload()
    series = {
        name: [
            _mean(
                [
                    named_cell(workload, name, kw, delta).mean_runtime_ms
                    for delta in FLICKR_DELTAS
                ]
            )
            for kw in KEYWORD_COUNTS
        ]
        for name in RUNTIME_ALGORITHMS
    }
    return ExperimentResult(
        figure="fig04",
        title="Runtime (Flickr) vs number of query keywords",
        x_name="number of query keywords",
        xs=list(KEYWORD_COUNTS),
        series=series,
        y_name="runtime (ms)",
        notes=f"each point averages over Delta in {FLICKR_DELTAS} km, "
        f"dataset {workload.name}",
    )


def fig05_runtime_vs_budget(workload: Workload | None = None) -> ExperimentResult:
    """Figure 5: runtime vs Delta, averaged over the keyword sweep."""
    workload = workload or flickr_workload()
    series = {
        name: [
            _mean(
                [
                    named_cell(workload, name, kw, delta).mean_runtime_ms
                    for kw in KEYWORD_COUNTS
                ]
            )
            for delta in FLICKR_DELTAS
        ]
        for name in RUNTIME_ALGORITHMS
    }
    return ExperimentResult(
        figure="fig05",
        title="Runtime (Flickr) vs budget limit Delta",
        x_name="Delta (km)",
        xs=list(FLICKR_DELTAS),
        series=series,
        y_name="runtime (ms)",
        notes=f"each point averages over keyword counts {KEYWORD_COUNTS}, "
        f"dataset {workload.name}",
    )


# ----------------------------------------------------------------------
# Figures 6-7: the epsilon knob of OSScaling
# ----------------------------------------------------------------------

EPSILONS = (0.1, 0.3, 0.5, 0.7, 0.9)


def fig06_runtime_vs_epsilon(workload: Workload | None = None) -> ExperimentResult:
    """Figure 6: OSScaling runtime vs eps (Delta=6, 6 keywords)."""
    workload = workload or flickr_workload()
    runtimes = [
        cell_summary(workload, "osscaling", 6, 6.0, epsilon=eps).mean_runtime_ms
        for eps in EPSILONS
    ]
    return ExperimentResult(
        figure="fig06",
        title="OSScaling runtime vs epsilon",
        x_name="epsilon",
        xs=list(EPSILONS),
        series={"OSScaling": runtimes},
        y_name="runtime (ms)",
        notes="Delta = 6 km, 6 query keywords",
    )


def fig07_ratio_vs_epsilon(workload: Workload | None = None) -> ExperimentResult:
    """Figure 7: OSScaling relative ratio vs eps (base eps=0.1)."""
    workload = workload or flickr_workload()
    base = base_cell(workload, 6, 6.0)
    ratios = [
        relative_ratio(cell_summary(workload, "osscaling", 6, 6.0, epsilon=eps), base)
        for eps in EPSILONS
    ]
    return ExperimentResult(
        figure="fig07",
        title="OSScaling relative ratio vs epsilon",
        x_name="epsilon",
        xs=list(EPSILONS),
        series={"OSScaling": ratios},
        y_name="relative ratio",
        notes="base: OSScaling eps=0.1; Delta = 6 km, 6 query keywords",
    )


# ----------------------------------------------------------------------
# Figures 8-9: the beta knob of BucketBound
# ----------------------------------------------------------------------

BETAS = (1.2, 1.4, 1.6, 1.8, 2.0)


def fig08_runtime_vs_beta(workload: Workload | None = None) -> ExperimentResult:
    """Figure 8: BucketBound runtime vs beta (eps=0.5, Delta=6, 6 kw)."""
    workload = workload or flickr_workload()
    runtimes = [
        cell_summary(
            workload, "bucketbound", 6, 6.0, epsilon=DEFAULT_EPSILON, beta=beta
        ).mean_runtime_ms
        for beta in BETAS
    ]
    return ExperimentResult(
        figure="fig08",
        title="BucketBound runtime vs beta",
        x_name="beta",
        xs=list(BETAS),
        series={"BucketBound": runtimes},
        y_name="runtime (ms)",
        notes="eps = 0.5, Delta = 6 km, 6 query keywords",
    )


def fig09_ratio_vs_beta(workload: Workload | None = None) -> ExperimentResult:
    """Figure 9: BucketBound relative ratio vs beta (must stay < beta)."""
    workload = workload or flickr_workload()
    base = base_cell(workload, 6, 6.0)
    ratios = [
        relative_ratio(
            cell_summary(workload, "bucketbound", 6, 6.0, epsilon=DEFAULT_EPSILON, beta=beta),
            base,
        )
        for beta in BETAS
    ]
    return ExperimentResult(
        figure="fig09",
        title="BucketBound relative ratio vs beta",
        x_name="beta",
        xs=list(BETAS),
        series={"BucketBound": ratios},
        y_name="relative ratio",
        notes="base: OSScaling eps=0.1; eps = 0.5, Delta = 6 km, 6 query keywords",
    )


# ----------------------------------------------------------------------
# Figures 10-11: accuracy of the fast algorithms
# ----------------------------------------------------------------------

RATIO_ALGORITHMS = ("BucketBound", "Greedy-2", "Greedy-1")


def fig10_ratio_vs_keywords(workload: Workload | None = None) -> ExperimentResult:
    """Figure 10: relative ratio vs #keywords (Delta = 6 km)."""
    workload = workload or flickr_workload()
    series: dict[str, list[float]] = {name: [] for name in RATIO_ALGORITHMS}
    for kw in KEYWORD_COUNTS:
        base = base_cell(workload, kw, 6.0)
        for name in RATIO_ALGORITHMS:
            series[name].append(relative_ratio(named_cell(workload, name, kw, 6.0), base))
    return ExperimentResult(
        figure="fig10",
        title="Relative ratio vs number of query keywords",
        x_name="number of query keywords",
        xs=list(KEYWORD_COUNTS),
        series=series,
        y_name="relative ratio",
        notes="base: OSScaling eps=0.1; Delta = 6 km; greedy ratios measured "
        "on the queries each greedy solves (paper protocol)",
    )


def fig11_ratio_vs_budget(workload: Workload | None = None) -> ExperimentResult:
    """Figure 11: relative ratio vs Delta (6 keywords)."""
    workload = workload or flickr_workload()
    series: dict[str, list[float]] = {name: [] for name in RATIO_ALGORITHMS}
    for delta in FLICKR_DELTAS:
        base = base_cell(workload, 6, delta)
        for name in RATIO_ALGORITHMS:
            series[name].append(
                relative_ratio(named_cell(workload, name, 6, delta), base)
            )
    return ExperimentResult(
        figure="fig11",
        title="Relative ratio vs budget limit Delta",
        x_name="Delta (km)",
        xs=list(FLICKR_DELTAS),
        series=series,
        y_name="relative ratio",
        notes="base: OSScaling eps=0.1; 6 query keywords",
    )


# ----------------------------------------------------------------------
# Figures 12-13: the alpha knob of Greedy
# ----------------------------------------------------------------------

ALPHAS = (0.0, 0.25, 0.5, 0.75, 1.0)


def _alpha_cells(
    workload: Workload, figure_alpha: float
) -> tuple[list[RunSummary], list[RunSummary], list[RunSummary]]:
    """Greedy-1/Greedy-2 runs plus base runs over the keyword battery.

    ``figure_alpha`` follows the paper's experimental semantics (1 =
    budget-driven); Equation 1 as printed weighs the objective by alpha,
    so the engine receives ``1 - figure_alpha`` (see module docstring).
    """
    eq1_alpha = 1.0 - figure_alpha
    greedy1 = [
        cell_summary(workload, "greedy", kw, 6.0, alpha=eq1_alpha) for kw in KEYWORD_COUNTS
    ]
    greedy2 = [
        cell_summary(workload, "greedy2", kw, 6.0, alpha=eq1_alpha) for kw in KEYWORD_COUNTS
    ]
    bases = [base_cell(workload, kw, 6.0) for kw in KEYWORD_COUNTS]
    return greedy1, greedy2, bases


def fig12_ratio_vs_alpha(workload: Workload | None = None) -> ExperimentResult:
    """Figure 12: greedy relative ratio vs alpha (Delta = 6 km)."""
    workload = workload or flickr_workload()
    series: dict[str, list[float]] = {"Greedy-1": [], "Greedy-2": []}
    for alpha in ALPHAS:
        greedy1, greedy2, bases = _alpha_cells(workload, alpha)
        series["Greedy-1"].append(
            _mean([relative_ratio(run, base) for run, base in zip(greedy1, bases)])
        )
        series["Greedy-2"].append(
            _mean([relative_ratio(run, base) for run, base in zip(greedy2, bases)])
        )
    return ExperimentResult(
        figure="fig12",
        title="Greedy relative ratio vs alpha",
        x_name="alpha",
        xs=list(ALPHAS),
        series=series,
        y_name="relative ratio",
        notes="Delta = 6 km, averaged over keyword counts; alpha follows the "
        "paper's experimental semantics (engine gets 1 - alpha, see DESIGN.md)",
    )


def fig13_failure_vs_alpha(workload: Workload | None = None) -> ExperimentResult:
    """Figure 13: greedy failure percentage vs alpha (Delta = 6 km)."""
    workload = workload or flickr_workload()
    series: dict[str, list[float]] = {"Greedy-1": [], "Greedy-2": []}
    for alpha in ALPHAS:
        greedy1, greedy2, bases = _alpha_cells(workload, alpha)
        series["Greedy-1"].append(
            _mean([failure_percentage(run, base) for run, base in zip(greedy1, bases)])
        )
        series["Greedy-2"].append(
            _mean([failure_percentage(run, base) for run, base in zip(greedy2, bases)])
        )
    return ExperimentResult(
        figure="fig13",
        title="Greedy failure percentage vs alpha",
        x_name="alpha",
        xs=list(ALPHAS),
        series=series,
        y_name="failure (%)",
        notes="failures counted over queries with feasible solutions "
        "(certified by OSScaling eps=0.1), as in the paper",
    )


# ----------------------------------------------------------------------
# Figures 14-15: equal theoretical approximation bounds
# ----------------------------------------------------------------------

EQUAL_BOUNDS = (2.0, 4.0, 6.0, 8.0, 10.0)


def _equal_bound_params(bound: float) -> tuple[float, float, float]:
    """(eps_osscaling, eps_bucketbound, beta) achieving ratio *bound*.

    OSScaling's bound is ``1/(1-eps)``; BucketBound's is ``beta/(1-eps)``
    with ``beta`` fixed at 1.2, so its eps solves ``beta/(1-eps) = bound``.
    """
    eps_os = 1.0 - 1.0 / bound
    eps_bb = 1.0 - DEFAULT_BETA / bound
    return eps_os, eps_bb, DEFAULT_BETA


def fig14_runtime_equal_bound(workload: Workload | None = None) -> ExperimentResult:
    """Figure 14: runtime at matched theoretical bounds."""
    workload = workload or flickr_workload()
    os_times, bb_times = [], []
    for bound in EQUAL_BOUNDS:
        eps_os, eps_bb, beta = _equal_bound_params(bound)
        os_times.append(
            cell_summary(workload, "osscaling", 6, 6.0, epsilon=eps_os).mean_runtime_ms
        )
        bb_times.append(
            cell_summary(
                workload, "bucketbound", 6, 6.0, epsilon=eps_bb, beta=beta
            ).mean_runtime_ms
        )
    return ExperimentResult(
        figure="fig14",
        title="Runtime at equal theoretical approximation bound",
        x_name="theoretical bound",
        xs=list(EQUAL_BOUNDS),
        series={"OSScaling": os_times, "BucketBound": bb_times},
        y_name="runtime (ms)",
        notes="OSScaling eps = 1 - 1/bound; BucketBound beta = 1.2, "
        "eps = 1 - beta/bound; Delta = 6 km, 6 keywords",
    )


def fig15_ratio_equal_bound(workload: Workload | None = None) -> ExperimentResult:
    """Figure 15: relative ratio at matched theoretical bounds."""
    workload = workload or flickr_workload()
    base = base_cell(workload, 6, 6.0)
    os_ratios, bb_ratios = [], []
    for bound in EQUAL_BOUNDS:
        eps_os, eps_bb, beta = _equal_bound_params(bound)
        os_ratios.append(
            relative_ratio(cell_summary(workload, "osscaling", 6, 6.0, epsilon=eps_os), base)
        )
        bb_ratios.append(
            relative_ratio(
                cell_summary(workload, "bucketbound", 6, 6.0, epsilon=eps_bb, beta=beta), base
            )
        )
    return ExperimentResult(
        figure="fig15",
        title="Relative ratio at equal theoretical approximation bound",
        x_name="theoretical bound",
        xs=list(EQUAL_BOUNDS),
        series={"OSScaling": os_ratios, "BucketBound": bb_ratios},
        y_name="relative ratio",
        notes="base: OSScaling eps=0.1; same parameters as fig14",
    )


# ----------------------------------------------------------------------
# Figure 16: the KkR top-k extension
# ----------------------------------------------------------------------

TOPK_KS = (1, 2, 3, 4, 5)


def fig16_topk_runtime(workload: Workload | None = None) -> ExperimentResult:
    """Figure 16: KkR runtime vs k (eps=0.5, beta=1.2, Delta=6)."""
    import time as _time

    workload = workload or flickr_workload()
    series: dict[str, list[float]] = {"OSScaling": [], "BucketBound": []}
    for k in TOPK_KS:
        for name, algorithm in (("OSScaling", "osscaling"), ("BucketBound", "bucketbound")):
            total = 0.0
            count = 0
            for kw in KEYWORD_COUNTS:
                for query in workload.query_set(kw, 6.0):
                    begin = _time.perf_counter()
                    workload.engine.top_k(
                        query.source,
                        query.target,
                        query.keywords,
                        query.budget_limit,
                        k=k,
                        algorithm=algorithm,
                        epsilon=DEFAULT_EPSILON,
                        **({"beta": DEFAULT_BETA} if algorithm == "bucketbound" else {}),
                    )
                    total += _time.perf_counter() - begin
                    count += 1
            series[name].append(1000.0 * total / count)
    return ExperimentResult(
        figure="fig16",
        title="KkR runtime vs k",
        x_name="k",
        xs=list(TOPK_KS),
        series=series,
        y_name="runtime (ms)",
        notes="eps = 0.5, beta = 1.2, Delta = 6 km, averaged over keyword counts",
    )


# ----------------------------------------------------------------------
# Figures 17-19: road-network datasets
# ----------------------------------------------------------------------

def fig17_scalability() -> ExperimentResult:
    """Figure 17: runtime vs graph size on road networks (6 keywords)."""
    sizes = road_sizes()
    series: dict[str, list[float]] = {name: [] for name in RUNTIME_ALGORITHMS}
    for size in sizes:
        workload = road_workload(size)
        for name in RUNTIME_ALGORITHMS:
            series[name].append(
                named_cell(
                    workload, name, 6, workload.default_delta
                ).mean_runtime_ms
            )
    return ExperimentResult(
        figure="fig17",
        title="Scalability: runtime vs road-network size",
        x_name="number of nodes",
        xs=list(sizes),
        series=series,
        y_name="runtime (ms)",
        notes="6 query keywords; Delta = 20 km (paper: 30 km on 5k-20k "
        "DIMACS subgraphs; see DESIGN.md substitutions)",
    )


def fig18_road_runtime_vs_keywords() -> ExperimentResult:
    """Figure 18: runtime vs #keywords on the default road graph."""
    workload = road_workload(road_default_size())
    series = {
        name: [
            named_cell(workload, name, kw, workload.default_delta).mean_runtime_ms
            for kw in KEYWORD_COUNTS
        ]
        for name in RUNTIME_ALGORITHMS
    }
    return ExperimentResult(
        figure="fig18",
        title="Runtime (road network) vs number of query keywords",
        x_name="number of query keywords",
        xs=list(KEYWORD_COUNTS),
        series=series,
        y_name="runtime (ms)",
        notes=f"dataset {workload.name}, Delta = {workload.default_delta} km",
    )


def fig19_road_runtime_vs_budget() -> ExperimentResult:
    """Figure 19: runtime vs Delta on the default road graph."""
    workload = road_workload(road_default_size())
    series = {
        name: [
            named_cell(workload, name, 6, delta).mean_runtime_ms
            for delta in ROAD_DELTAS
        ]
        for name in RUNTIME_ALGORITHMS
    }
    return ExperimentResult(
        figure="fig19",
        title="Runtime (road network) vs budget limit Delta",
        x_name="Delta (km)",
        xs=list(ROAD_DELTAS),
        series=series,
        y_name="runtime (ms)",
        notes=f"dataset {workload.name}, 6 query keywords",
    )


# ----------------------------------------------------------------------
# Ablations (DESIGN.md A1-A3)
# ----------------------------------------------------------------------

def ablation_opt_strategies(workload: Workload | None = None) -> ExperimentResult:
    """A1: Section 4.2.1 claims the optimisation strategies buy 3-5x.

    The strategies target queries with *infrequent* keywords (Strategy 2
    explicitly so; Strategy 1's early-feasible jumps matter most when
    ordinary expansion takes long to cover a rare word), so this ablation
    uses a dedicated query set drawn without the default common-word
    screen: keywords sampled uniformly over the vocabulary with df >= 2.
    """
    from repro.bench.workloads import bench_num_queries
    from repro.datasets.queries import QuerySetConfig, generate_query_set

    workload = workload or flickr_workload()
    config = QuerySetConfig(
        num_queries=bench_num_queries(),
        num_keywords=6,
        budget_limit=6.0,
        max_sigma_fraction=0.5,
        min_document_frequency=2,
        frequency_weighted=False,
        seed=1735,
    )
    queries = generate_query_set(
        workload.graph, workload.engine.index, config, tables=workload.engine.tables
    )

    configs = (
        ("both strategies", {"use_strategy1": True, "use_strategy2": True}),
        ("strategy 1 only", {"use_strategy1": True, "use_strategy2": False}),
        ("strategy 2 only", {"use_strategy1": False, "use_strategy2": True}),
        ("no strategies", {"use_strategy1": False, "use_strategy2": False}),
    )
    series: dict[str, list[float]] = {"OSScaling": [], "BucketBound": []}
    xs = [name for name, _params in configs]
    for _name, params in configs:
        series["OSScaling"].append(
            run_query_set(
                workload.engine, queries, "osscaling", epsilon=DEFAULT_EPSILON, **params
            ).mean_runtime_ms
        )
        series["BucketBound"].append(
            run_query_set(
                workload.engine,
                queries,
                "bucketbound",
                epsilon=DEFAULT_EPSILON,
                beta=DEFAULT_BETA,
                **params,
            ).mean_runtime_ms
        )
    return ExperimentResult(
        figure="ablation_opt_strategies",
        title="Optimisation strategies on/off (Section 4.2.1 text)",
        x_name="configuration",
        xs=xs,
        series=series,
        y_name="runtime (ms)",
        notes="Delta = 6 km, 6 uniformly-drawn (rare-leaning) keywords; the "
        "paper reports 3-5x slowdown with both strategies disabled",
    )


def ablation_epsilon_labels(workload: Workload | None = None) -> ExperimentResult:
    """Companion to Figure 6: label volume, not just runtime, vs eps."""
    workload = workload or flickr_workload()
    labels = []
    for eps in EPSILONS:
        summary = cell_summary(workload, "osscaling", 6, 6.0, epsilon=eps)
        labels.append(
            sum(o.labels_created for o in summary.outcomes) / max(summary.total, 1)
        )
    return ExperimentResult(
        figure="ablation_epsilon_labels",
        title="OSScaling labels created vs epsilon",
        x_name="epsilon",
        xs=list(EPSILONS),
        series={"labels created / query": labels},
        y_name="labels",
        notes="mechanism probe for Figure 6: eps coarsens scaled scores so "
        "domination *can* merge more labels; on this workload objectives "
        "are near-discrete log trip-counts, collisions stay rare, and the "
        "label volume barely reacts (see EXPERIMENTS.md)",
    )


def ablation_partition() -> ExperimentResult:
    """A2: flat vs partitioned pre-processing (paper future work, §6).

    Reports build time, score memory and the mean relative deviation of
    the assembled ``BS(sigma)`` scores — the assembly is exact (see
    :mod:`repro.prep.partition`), so the deviation column doubles as an
    end-to-end verification and should read ~0.
    """
    import time as _time

    import numpy as np

    from repro.prep.partition import PartitionedCostTables
    from repro.prep.tables import CostTables

    workload = road_workload(road_sizes()[0])
    graph = workload.graph

    begin = _time.perf_counter()
    flat = CostTables.from_graph(graph, predecessors=False)
    flat_seconds = _time.perf_counter() - begin

    begin = _time.perf_counter()
    partitioned = PartitionedCostTables.from_graph(graph)
    part_seconds = _time.perf_counter() - begin

    rng = np.random.default_rng(7)
    targets = rng.integers(0, graph.num_nodes, size=8)
    inflations = []
    for t in targets:
        reference = flat.bs_sigma_col(int(t))
        assembled = partitioned.bs_sigma_col(int(t))
        finite = np.isfinite(reference) & (reference > 0)
        inflations.append(
            float(np.mean((assembled[finite] - reference[finite]) / reference[finite]))
        )
    flat_bytes = sum(
        getattr(flat, name).nbytes
        for name in ("os_tau", "bs_tau", "os_sigma", "bs_sigma")
    )
    return ExperimentResult(
        figure="ablation_partition",
        title="Flat vs partitioned pre-processing (future work §6)",
        x_name="metric",
        xs=["build time (s)", "score memory (MB)", "mean BS(sigma) inflation"],
        series={
            "flat": [flat_seconds, flat_bytes / 1e6, 0.0],
            "partitioned": [
                part_seconds,
                partitioned.memory_bytes() / 1e6,
                _mean(inflations),  # exact assembly: expect ~0
            ],
        },
        y_name="see metric",
        notes=f"graph {workload.name} ({graph.num_nodes} nodes, "
        f"{partitioned.partition.num_cells} cells, "
        f"{len(partitioned.partition.border_nodes)} border nodes)",
    )


def ablation_disk_index() -> ExperimentResult:
    """A3: in-memory vs disk-resident B+-tree inverted file lookups."""
    import tempfile
    import time as _time
    from pathlib import Path as _Path

    import numpy as np

    from repro.index.diskindex import DiskInvertedIndex

    workload = flickr_workload()
    graph = workload.graph
    memory_index = workload.engine.index

    keyword_ids = [
        kid
        for kid in range(len(graph.keyword_table))
        if memory_index.document_frequency(kid) > 0
    ]
    rng = np.random.default_rng(11)
    probes = [int(k) for k in rng.choice(keyword_ids, size=2000, replace=True)]

    with tempfile.TemporaryDirectory() as tmp:
        disk_index = DiskInvertedIndex.build(
            graph, _Path(tmp) / "index.pages", buffer_capacity=64
        )

        begin = _time.perf_counter()
        for kid in probes:
            memory_index.postings(kid)
        memory_us = 1e6 * (_time.perf_counter() - begin) / len(probes)

        begin = _time.perf_counter()
        for kid in probes:
            disk_index.postings(kid)
        disk_us = 1e6 * (_time.perf_counter() - begin) / len(probes)
        hit_rate = disk_index.buffer_pool.stats.hit_rate
        disk_index.close()

    return ExperimentResult(
        figure="ablation_index",
        title="Inverted file back ends: in-memory vs disk B+-tree",
        x_name="metric",
        xs=["lookup latency (us)", "buffer hit rate (%)"],
        series={
            "in-memory": [memory_us, 100.0],
            "disk B+-tree": [disk_us, 100.0 * hit_rate],
        },
        y_name="see metric",
        notes=f"{len(probes)} random postings lookups over "
        f"{len(keyword_ids)} terms, 64-page LRU buffer pool",
    )


# ----------------------------------------------------------------------
# serving layer: batched + cached throughput (beyond the paper)
# ----------------------------------------------------------------------

def service_throughput(
    repeats: int = 5, workers: int = 4, num_queries: int | None = None
) -> ExperimentResult:
    """Serving-mode throughput on repeat-heavy streams.

    Models the workload the paper's Flickr query logs motivate: a stream
    that repeats a base query set *repeats* times.  Three serving modes
    per dataset (Figure-1 graph and the Flickr-like workload):

    * ``Engine-sequential`` — one ``engine.run`` per stream query, no
      reuse (today's baseline);
    * ``Service-cold`` — one batch through a fresh ``QueryService``
      (in-batch dedup + one shared candidate-set pass + thread fan-out);
    * ``Service-warm`` — the same stream again on the now-warm cache.

    Values are mean milliseconds per stream query; ``meta`` records the
    warm-over-sequential speedup per dataset.
    """
    import time as _time

    from repro.core.engine import KOREngine
    from repro.core.query import KORQuery
    from repro.graph.generators import figure_1_graph
    from repro.service import QueryService

    datasets: list[tuple[str, KOREngine, list[KORQuery]]] = []

    fig1_engine = KOREngine(figure_1_graph())
    fig1_queries = [
        KORQuery(0, 7, ("t1", "t2", "t3"), 8.0),
        KORQuery(0, 7, ("t1", "t2"), 8.0),
        KORQuery(0, 6, ("t2", "t4"), 10.0),
        KORQuery(1, 7, ("t3",), 9.0),
        KORQuery(0, 5, ("t1", "t4"), 12.0),
        KORQuery(2, 7, ("t2", "t3"), 9.0),
    ]
    datasets.append(("figure1", fig1_engine, fig1_queries))

    workload = flickr_workload()
    flickr_queries = workload.query_set(3, num_queries=num_queries)
    datasets.append(("flickr", workload.engine, flickr_queries))

    xs: list[str] = []
    sequential_ms: list[float] = []
    cold_ms: list[float] = []
    warm_ms: list[float] = []
    meta: dict = {"repeats": repeats, "workers": workers, "speedup_warm": {}}

    for name, engine, base_queries in datasets:
        stream = list(base_queries) * repeats

        begin = _time.perf_counter()
        for query in stream:
            engine.run(query, algorithm="bucketbound")
        sequential = _time.perf_counter() - begin

        service = QueryService(engine, cache_capacity=4096)
        begin = _time.perf_counter()
        service.run_batch(stream, algorithm="bucketbound", workers=workers)
        cold = _time.perf_counter() - begin

        begin = _time.perf_counter()
        service.run_batch(stream, algorithm="bucketbound", workers=workers)
        warm = _time.perf_counter() - begin

        per_query = 1000.0 / len(stream)
        xs.append(name)
        sequential_ms.append(sequential * per_query)
        cold_ms.append(cold * per_query)
        warm_ms.append(warm * per_query)
        meta["speedup_warm"][name] = sequential / warm if warm > 0 else float("inf")
        meta.setdefault("hit_rate", {})[name] = service.snapshot().hit_rate

    return ExperimentResult(
        figure="service_throughput",
        title="Serving-layer throughput on repeat-heavy query streams",
        x_name="dataset",
        xs=xs,
        series={
            "Engine-sequential": sequential_ms,
            "Service-cold": cold_ms,
            "Service-warm": warm_ms,
        },
        y_name="mean ms / stream query",
        notes=(
            f"stream = base query set x{repeats}; service uses {workers} workers, "
            "canonicalizing LRU cache; warm pass serves the whole stream from cache"
        ),
        meta=meta,
    )


def sharded_throughput(
    workers: int = 4,
    num_queries: int | None = None,
    num_cells: int | None = None,
    backend_names: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Sharded serving: batch throughput per execution backend.

    Runs one batch of *distinct* queries (cache disabled — this measures
    compute fan-out, not the cache) through a
    :class:`~repro.service.sharding.ShardedQueryService` on each backend:

    * ``SerialBackend`` — the single-thread floor;
    * ``ThreadBackend`` — PR 1's concurrency (GIL-bound);
    * ``ProcessBackend`` — process-pool fan-out over picklable shard
      handles, the backend that escapes the GIL.

    Two datasets: the Figure-1 toy graph (queries are microseconds, so
    process IPC overhead is visible) and the Flickr-like workload (the
    multi-shard batch workload the process pool is *for*).  Values are
    batch throughput in queries/second; ``meta`` records each backend's
    speedup over serial per dataset.  Every backend is warmed with one
    un-timed pass so pool spin-up and worker-side engine assembly are
    not billed to the timed batch.
    """
    import time as _time

    from repro.core.query import KORQuery
    from repro.graph.generators import figure_1_graph
    from repro.service import ProcessBackend, SerialBackend, ShardedQueryService, ThreadBackend

    fig1_queries = []
    for spread, delta in enumerate((8.0, 9.0, 10.0, 11.0, 12.0, 13.0)):
        for keywords in (("t1", "t2", "t3"), ("t1", "t2"), ("t2", "t4"), ("t3",)):
            fig1_queries.append(KORQuery(0, 7, keywords, delta + 0.1 * spread))
    datasets: list[tuple[str, object, list[KORQuery], int]] = [
        ("figure1", figure_1_graph(), fig1_queries, 2)
    ]

    workload = flickr_workload()
    flickr_queries: list[KORQuery] = []
    for kw in (2, 3, 4):
        flickr_queries.extend(
            workload.query_set(kw, 6.0, num_queries=num_queries)
        )
    datasets.append(("flickr", workload.graph, flickr_queries, num_cells or 0))

    backends = (
        ("SerialBackend", lambda: SerialBackend()),
        ("ThreadBackend", lambda: ThreadBackend(workers=workers)),
        ("ProcessBackend", lambda: ProcessBackend(workers=workers)),
    )
    if backend_names is not None:
        # Callers that cannot use a backend's numbers (e.g. the CI
        # regression gate, which never gates the core-count-dependent
        # process pool) skip measuring it entirely.
        backends = tuple(
            (name, factory) for name, factory in backends if name in backend_names
        )
        if "SerialBackend" not in dict(backends):
            raise ValueError("backend_names must include SerialBackend (the baseline)")
    import os

    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        usable_cpus = os.cpu_count() or 1

    xs = [name for name, _graph, _queries, _cells in datasets]
    series: dict[str, list[float]] = {name: [] for name, _factory in backends}
    meta: dict = {
        "workers": workers,
        #: Process fan-out can only beat serial when this is > 1.
        "usable_cpus": usable_cpus,
        "batch_sizes": {name: len(queries) for name, _g, queries, _c in datasets},
        "num_cells": {},
        "speedup_over_serial": {},
    }

    for dataset_name, graph, queries, cells in datasets:
        walls: dict[str, float] = {}
        for backend_name, factory in backends:
            backend = factory()
            try:
                service = ShardedQueryService(
                    graph,
                    num_cells=cells or None,
                    backend=backend,
                    cache_capacity=0,
                )
                meta["num_cells"][dataset_name] = service.num_shards
                # Warm pass: pool spin-up + worker engine assembly.
                service.run_batch(queries, algorithm="bucketbound", workers=workers)
                begin = _time.perf_counter()
                service.run_batch(queries, algorithm="bucketbound", workers=workers)
                walls[backend_name] = _time.perf_counter() - begin
            finally:
                backend.close()
            series[backend_name].append(len(queries) / walls[backend_name])
        meta["speedup_over_serial"][dataset_name] = {
            backend_name: walls["SerialBackend"] / walls[backend_name]
            for backend_name, _factory in backends
        }

    return ExperimentResult(
        figure="sharded_throughput",
        title="Sharded serving throughput per execution backend",
        x_name="dataset",
        xs=xs,
        series=series,
        y_name="queries / second",
        notes=(
            f"one batch of distinct queries, cache disabled, {workers} workers; "
            "one-wave scatter (cell attempt + cross-cell border assembly); "
            "warm pass excluded from timing"
        ),
        meta=meta,
    )


def border_heavy_throughput(
    workers: int = 4,
    num_queries: int | None = None,
    backend_names: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Sharded serving under a border-heavy (cross-cell) query mix.

    The ``sharded_throughput`` figure measures a natural mix, which
    leans cell-local; this one forces every query's endpoints into
    *different* cells, so (almost) every miss skips the cell attempt and
    runs on the cross-cell :class:`~repro.service.crosscell.BorderEngine`
    alone — the regime the border-table assembly is for, and the one the
    CI regression gate watches so cross-cell latency cannot silently
    rot.  Values are batch throughput in queries/second per execution
    backend; ``meta`` records the achieved cross-cell fraction (should
    read ~1.0) and the scatter-merge win mix.
    """
    import time as _time

    from repro.core.query import KORQuery
    from repro.graph.generators import figure_1_graph
    from repro.service import ProcessBackend, SerialBackend, ShardedQueryService, ThreadBackend

    fig1_queries = []
    for spread, delta in enumerate((8.0, 9.0, 10.0, 11.0, 12.0, 13.0)):
        for keywords in (("t1", "t2", "t3"), ("t1", "t2"), ("t2", "t4"), ("t3",)):
            fig1_queries.append(KORQuery(0, 7, keywords, delta + 0.1 * spread))
    datasets: list[tuple[str, object, list[KORQuery], int]] = [
        ("figure1", figure_1_graph(), fig1_queries, 2)
    ]

    workload = flickr_workload()
    flickr_queries: list[KORQuery] = []
    for kw in (2, 3, 4):
        flickr_queries.extend(workload.query_set(kw, 6.0, num_queries=num_queries))
    datasets.append(("flickr", workload.graph, flickr_queries, 0))

    backends = (
        ("SerialBackend", lambda: SerialBackend()),
        ("ThreadBackend", lambda: ThreadBackend(workers=workers)),
        ("ProcessBackend", lambda: ProcessBackend(workers=workers)),
    )
    if backend_names is not None:
        backends = tuple(
            (name, factory) for name, factory in backends if name in backend_names
        )

    xs = [name for name, _graph, _queries, _cells in datasets]
    series: dict[str, list[float]] = {name: [] for name, _factory in backends}
    meta: dict = {
        "workers": workers,
        "num_cells": {},
        "cross_cell_fraction": {},
        "merge_wins": {},
    }

    for dataset_name, graph, base_queries, cells in datasets:
        # Derive the cross-cell mix once per dataset: the partition is
        # seed-deterministic, so every backend's service agrees on it.
        probe = ShardedQueryService(
            graph, num_cells=cells or None, backend=SerialBackend(), cache_capacity=0
        )
        partition = probe.partition
        num_cells = probe.num_shards
        queries: list[KORQuery] = []
        for query in base_queries:
            src_cell = int(partition.cell_of[query.source])
            if num_cells > 1 and int(partition.cell_of[query.target]) == src_cell:
                other = (src_cell + 1) % num_cells
                target = int(partition.cells[other][0])
                query = KORQuery(query.source, target, query.keywords, query.budget_limit)
            queries.append(query)
        crossing = sum(1 for q in queries if probe.plan_of(q) != "local")
        meta["cross_cell_fraction"][dataset_name] = crossing / max(len(queries), 1)
        meta["num_cells"][dataset_name] = num_cells
        probe.close()

        for backend_name, factory in backends:
            backend = factory()
            try:
                service = ShardedQueryService(
                    graph, num_cells=cells or None, backend=backend, cache_capacity=0
                )
                # Warm pass: pool spin-up + worker engine assembly.
                service.run_batch(queries, algorithm="bucketbound", workers=workers)
                begin = _time.perf_counter()
                service.run_batch(queries, algorithm="bucketbound", workers=workers)
                wall = _time.perf_counter() - begin
                meta["merge_wins"].setdefault(dataset_name, {})[backend_name] = dict(
                    service.snapshot().merge_wins
                )
                service.close()
            finally:
                backend.close()
            series[backend_name].append(len(queries) / wall)

    return ExperimentResult(
        figure="border_heavy_throughput",
        title="Sharded serving throughput on a border-heavy query mix",
        x_name="dataset",
        xs=xs,
        series=series,
        y_name="queries / second",
        notes=(
            "every query's endpoints forced into different cells (cross-cell "
            f"fraction in meta); cache disabled, {workers} workers; "
            "cross-cell answers come from the border-table assembly alone"
        ),
        meta=meta,
    )


def async_throughput(
    repeats: int = 4,
    num_queries: int | None = None,
    window_seconds: float = 0.0,
    max_batch: int = 256,
) -> ExperimentResult:
    """Sync batch vs asyncio front-end under concurrent load.

    The same repeat-heavy stream is served two ways on a fresh
    :class:`~repro.service.service.QueryService` each:

    * ``Sync-batch`` — one blocking ``run_batch`` call (the PR 1 shape);
    * ``Async-frontend`` — every stream query awaited *concurrently*
      through an :class:`~repro.service.frontend.AsyncQueryService`,
      which coalesces the duplicates (single-flight) and aggregates the
      distinct queries into micro-batched ``execute`` waves.

    Values are stream queries/second; ``meta`` records how much the
    front-end collapsed (requests vs flights vs waves, coalesced count).
    The interesting reading is the *ratio*: the front-end should stay
    within small overhead of the batch path while turning a
    many-concurrent-awaiters workload into the same few engine runs.
    """
    import asyncio
    import time as _time

    from repro.core.engine import KOREngine
    from repro.core.query import KORQuery
    from repro.graph.generators import figure_1_graph
    from repro.service import AsyncQueryService, QueryService

    datasets: list[tuple[str, KOREngine, list[KORQuery]]] = []

    fig1_engine = KOREngine(figure_1_graph())
    fig1_queries = [
        KORQuery(0, 7, ("t1", "t2", "t3"), 8.0),
        KORQuery(0, 7, ("t1", "t2"), 8.0),
        KORQuery(0, 6, ("t2", "t4"), 10.0),
        KORQuery(1, 7, ("t3",), 9.0),
        KORQuery(0, 5, ("t1", "t4"), 12.0),
        KORQuery(2, 7, ("t2", "t3"), 9.0),
    ]
    datasets.append(("figure1", fig1_engine, fig1_queries))

    workload = flickr_workload()
    datasets.append(
        ("flickr", workload.engine, workload.query_set(3, num_queries=num_queries))
    )

    xs: list[str] = []
    sync_qps: list[float] = []
    async_qps: list[float] = []
    meta: dict = {
        "repeats": repeats,
        "window_seconds": window_seconds,
        "max_batch": max_batch,
        "coalesced": {},
        "scheduling": {},
    }

    for name, engine, base_queries in datasets:
        stream = list(base_queries) * repeats

        sync_service = QueryService(engine, cache_capacity=4096)
        begin = _time.perf_counter()
        sync_service.run_batch(stream, algorithm="bucketbound")
        sync_wall = _time.perf_counter() - begin

        async_service = QueryService(engine, cache_capacity=4096)

        async def drive(service=async_service):
            front = AsyncQueryService(
                service, window_seconds=window_seconds, max_batch=max_batch
            )
            async with front:
                await front.run_batch(stream, algorithm="bucketbound")
                return front.snapshot(), front.scheduling_stats()

        begin = _time.perf_counter()
        snapshot, scheduling = asyncio.run(drive())
        async_wall = _time.perf_counter() - begin

        xs.append(name)
        sync_qps.append(len(stream) / sync_wall if sync_wall > 0 else float("inf"))
        async_qps.append(len(stream) / async_wall if async_wall > 0 else float("inf"))
        meta["coalesced"][name] = snapshot.coalesced
        meta["scheduling"][name] = scheduling

    return ExperimentResult(
        figure="async_throughput",
        title="Sync batch vs asyncio front-end on a concurrent stream",
        x_name="dataset",
        xs=xs,
        series={"Sync-batch": sync_qps, "Async-frontend": async_qps},
        y_name="queries / second",
        notes=(
            f"stream = base query set x{repeats}, all stream queries awaited "
            "concurrently through the async front-end (coalescing + "
            "micro-batching); fresh service and cold cache per mode"
        ),
        meta=meta,
    )


def kernel_throughput(
    repeats: int = 8,
    workers: int = 2,
    wave_size: int | None = None,
    backend_names: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Batch-wave dispatch vs one submission per query, per backend.

    The batch executor ships a figure-1 stream through the same
    :class:`~repro.service.backends.ExecutionBackend` at two wave sizes:

    * ``Per-query-tasks`` — ``wave_size=1``: one
      :class:`~repro.service.backends.WaveTask` per unique query;
    * ``Batch-wave`` — ``wave_size`` queries per wave (default 32).

    Values are batch queries/second per backend.  The interesting number
    is the **ProcessBackend** pair: per-query dispatch pays pickle + IPC
    + future bookkeeping per query, a wave pays it once per ``wave_size``
    queries — this is the scatter overhead that capped sharded serving
    at ~2.8k qps while the flat loop did ~42k.  ``meta["speedup"]``
    records wave/per-query per backend; the searches themselves are the
    same ``engine.run`` loop on both sides, so the ratio *is* the
    transport amortisation.

    The stream perturbs each base query's budget per repeat so the batch
    deduplicator keeps every slot as a distinct unique computation —
    otherwise ``repeats`` identical queries collapse into one wave member
    and both modes would measure a six-query batch.
    """
    import time as _time

    from repro.core.engine import KOREngine
    from repro.core.query import KORQuery
    from repro.graph.generators import figure_1_graph
    from repro.service import ProcessBackend, SerialBackend, ThreadBackend
    from repro.service.batch import DEFAULT_WAVE_SIZE, execute_batch
    from repro.service.cache import ResultCache

    engine = KOREngine(figure_1_graph())
    base_queries = [
        KORQuery(0, 7, ("t1", "t2", "t3"), 8.0),
        KORQuery(0, 7, ("t1", "t2"), 8.0),
        KORQuery(0, 6, ("t2", "t4"), 10.0),
        KORQuery(1, 7, ("t3",), 9.0),
        KORQuery(0, 5, ("t1", "t4"), 12.0),
        KORQuery(2, 7, ("t2", "t3"), 9.0),
    ]
    stream = [
        KORQuery(q.source, q.target, q.keywords, q.budget_limit + 0.001 * i)
        for i in range(repeats)
        for q in base_queries
    ]
    effective_wave = wave_size if wave_size is not None else DEFAULT_WAVE_SIZE

    backends = (
        ("SerialBackend", lambda: SerialBackend()),
        ("ThreadBackend", lambda: ThreadBackend(workers=workers)),
        ("ProcessBackend", lambda: ProcessBackend(workers=workers)),
    )
    if backend_names is not None:
        # The CI regression gate never gates the core-count-dependent
        # process pool; let it skip measuring one entirely.
        backends = tuple(
            (name, factory) for name, factory in backends if name in backend_names
        )

    def timed_batch(backend, handle, wave_size: int) -> float:
        """Best-of-3 wall seconds for one batch at the given wave size."""
        best = float("inf")
        for _ in range(3):
            begin = _time.perf_counter()
            report = execute_batch(
                ResultCache(0),
                stream,
                backend=backend,
                handle=handle,
                wave_size=wave_size,
            )
            best = min(best, _time.perf_counter() - begin)
            if not report.ok:
                raise RuntimeError(f"benchmark batch failed: {report.errors}")
        return best

    xs: list[str] = []
    per_query_qps: list[float] = []
    wave_qps: list[float] = []
    meta: dict = {
        "num_queries": len(stream),
        "wave_size": effective_wave,
        "workers": workers,
        "speedup": {},
    }

    for name, factory in backends:
        backend = factory()
        try:
            handle = backend.register_engine(engine, key="kernel-bench")
            # Warm both sizes un-timed: pool spin-up and worker engine
            # assembly (on every lane a size reaches) are not billed.
            for size in (1, effective_wave):
                execute_batch(
                    ResultCache(0),
                    stream,
                    backend=backend,
                    handle=handle,
                    wave_size=size,
                )
            solo = timed_batch(backend, handle, 1)
            waved = timed_batch(backend, handle, effective_wave)
        finally:
            backend.close()
        xs.append(name)
        per_query_qps.append(len(stream) / solo if solo > 0 else float("inf"))
        wave_qps.append(len(stream) / waved if waved > 0 else float("inf"))
        meta["speedup"][name] = (
            wave_qps[-1] / per_query_qps[-1] if per_query_qps[-1] > 0 else float("inf")
        )

    return ExperimentResult(
        figure="kernel_throughput",
        title="Batch-wave dispatch vs per-query tasks (figure1)",
        x_name="backend",
        xs=xs,
        series={"Per-query-tasks": per_query_qps, "Batch-wave": wave_qps},
        y_name="queries / second",
        notes=(
            f"figure1 stream of {len(stream)} distinct queries (budgets "
            f"perturbed per repeat), wave_size={effective_wave}, best of 3 "
            "batches per mode after an un-timed warm pass; same backend and "
            "engine either side, only the wave size changes"
        ),
        meta=meta,
    )


def sharded_wave_throughput(
    repeats: int = 8,
    workers: int = 2,
    num_cells: int = 2,
    backend_names: tuple[str, ...] | None = None,
) -> ExperimentResult:
    """Shard-aware wave scatter vs per-attempt dispatch, per backend.

    The sharded tier's scatter groups same-(cell, algorithm, params)
    attempts into :class:`~repro.service.backends.WaveTask` waves — one
    submission per shard wave.  This experiment measures the same
    figure-1 query stream through two otherwise-identical
    :class:`ShardedQueryService` instances (adaptive wave size vs
    ``wave_size=1``, i.e. one submission per attempt; cache disabled)
    and reports batch queries/second per backend.

    As with :func:`kernel_throughput`, the ProcessBackend pair is the
    headline: per-attempt dispatch pays pickle + IPC + future
    bookkeeping *per attempt per tier* (cell-local, cross-cell, border
    repair), a shard wave pays it once per wave.  ``meta["speedup"]``
    records wave/per-query per backend.
    """
    import time as _time

    from repro.core.query import KORQuery
    from repro.graph.generators import figure_1_graph
    from repro.service import ProcessBackend, SerialBackend, ThreadBackend
    from repro.service.sharding import ShardedQueryService

    graph = figure_1_graph()
    base_queries = [
        KORQuery(0, 7, ("t1", "t2", "t3"), 8.0),
        KORQuery(0, 7, ("t1", "t2"), 8.0),
        KORQuery(0, 6, ("t2", "t4"), 10.0),
        KORQuery(1, 7, ("t3",), 9.0),
        KORQuery(0, 5, ("t1", "t4"), 12.0),
        KORQuery(2, 7, ("t2", "t3"), 9.0),
    ]
    stream = [
        KORQuery(q.source, q.target, q.keywords, q.budget_limit + 0.001 * i)
        for i in range(repeats)
        for q in base_queries
    ]

    backends = (
        ("SerialBackend", lambda: SerialBackend()),
        ("ThreadBackend", lambda: ThreadBackend(workers=workers)),
        ("ProcessBackend", lambda: ProcessBackend(workers=workers)),
    )
    if backend_names is not None:
        backends = tuple(
            (name, factory) for name, factory in backends if name in backend_names
        )

    def timed_batch(service) -> float:
        """Best-of-3 wall seconds for the stream through *service*."""
        best = float("inf")
        for _ in range(3):
            begin = _time.perf_counter()
            report = service.execute(stream, workers=workers)
            best = min(best, _time.perf_counter() - begin)
            if not report.ok:
                raise RuntimeError(f"benchmark batch failed: {report.errors}")
        return best

    xs: list[str] = []
    per_query_qps: list[float] = []
    wave_qps: list[float] = []
    meta: dict = {
        "num_queries": len(stream),
        "num_cells": num_cells,
        "workers": workers,
        "speedup": {},
    }

    for name, factory in backends:
        backend = factory()
        try:
            walls = {}
            for use_waves in (False, True):
                service = ShardedQueryService(
                    graph,
                    num_cells=num_cells,
                    backend=backend,
                    cache_capacity=0,
                    wave_size=None if use_waves else 1,
                )
                try:
                    # Warm un-timed: pool spin-up and worker shard
                    # assembly are not billed.
                    service.execute(stream, workers=workers)
                    walls[use_waves] = timed_batch(service)
                finally:
                    service.close()
        finally:
            backend.close()
        xs.append(name)
        per_query_qps.append(
            len(stream) / walls[False] if walls[False] > 0 else float("inf")
        )
        wave_qps.append(len(stream) / walls[True] if walls[True] > 0 else float("inf"))
        meta["speedup"][name] = (
            wave_qps[-1] / per_query_qps[-1] if per_query_qps[-1] > 0 else float("inf")
        )

    return ExperimentResult(
        figure="sharded_wave_throughput",
        title="Shard-aware wave scatter vs per-query tasks (figure1)",
        x_name="backend",
        xs=xs,
        series={"Per-query-tasks": per_query_qps, "Shard-waves": wave_qps},
        y_name="queries / second",
        notes=(
            f"figure1 stream of {len(stream)} distinct queries (budgets "
            f"perturbed per repeat) over {num_cells} cells, best of 3 "
            "batches per mode after an un-timed warm pass; same backend "
            "either side, only the scatter currency changes"
        ),
        meta=meta,
    )


def sharded_memory(cell_counts: tuple[int, ...] = (1, 2, 4, 8)) -> ExperimentResult:
    """Memory vs cell count for the sharded service (no global tier).

    The point of the border-table architecture: per-service cost-table
    bytes *shrink* as ``num_cells`` grows, because cross-cell answers are
    assembled from the cells' own tables plus a ``k x k`` border tier
    instead of a retained flat ``O(n^2)`` engine.  Reports the resident
    table bytes of a :class:`~repro.service.sharding.ShardedQueryService`
    per cell count next to the flat score tables it replaces; ``meta``
    records the border-node count per granularity.

    Measured on the road workload — the regime partitioning is *for*:
    spatial networks with small separators.  (A dense Flickr-like
    similarity graph partitions into cells whose border sets approach
    the whole node set, and the border tier then erases the savings —
    the same caveat every separator-based index carries.)
    """
    from repro.prep.partition import PartitionedCostTables
    from repro.service import SerialBackend, ShardedQueryService

    workload = road_workload(road_sizes()[0])
    graph = workload.graph
    flat_mb = PartitionedCostTables.flat_memory_bytes(graph.num_nodes) / 1e6

    xs: list[int] = []
    sharded_mb: list[float] = []
    meta: dict = {"num_nodes": graph.num_nodes, "border_nodes": {}}
    backend = SerialBackend()
    try:
        for requested in cell_counts:
            cells = min(requested, graph.num_nodes)
            service = ShardedQueryService(
                graph, num_cells=cells, backend=backend, cache_capacity=0
            )
            try:
                xs.append(cells)
                sharded_mb.append(service.memory_bytes() / 1e6)
                meta["border_nodes"][cells] = len(
                    service.border_engine.tables.partition.border_nodes
                )
            finally:
                service.close()
    finally:
        backend.close()

    return ExperimentResult(
        figure="sharded_memory",
        title="Sharded service table memory vs cell count",
        x_name="num_cells",
        xs=xs,
        series={
            "sharded service tables (MB)": sharded_mb,
            "flat score tables (MB)": [flat_mb] * len(xs),
        },
        y_name="MB",
        notes=(
            f"graph {workload.name} ({graph.num_nodes} nodes); sharded bytes "
            "count every score + predecessor matrix across cell engines and "
            "the cross-cell border tier, deduplicated (the border engine "
            "shares the cell tables)"
        ),
        meta=meta,
    )


def update_latency(
    cell_counts: tuple[int, ...] = (1, 4, 8),
    num_updates: int = 12,
    num_clusters: int = 8,
    cluster_size: int = 24,
    seed: int = 7,
) -> ExperimentResult:
    """Incremental repair latency vs full world rebuild, per cell count.

    The dynamic-world acceptance figure: a single-cell edge-cost update
    repairs one cell's tables plus the border tier, so as the cell count
    grows the repaired fraction of the world shrinks and repair must
    pull away from a from-scratch rebuild.  Series are milliseconds —
    ``Repair-p50`` / ``Repair-p95`` over *num_updates* single-edge
    updates, and ``Full-rebuild`` for ``world.rebuilt()`` on the same
    partition.  ``meta["speedup_p50"]`` records rebuild/p50 per cell
    count; the committed bench asserts it exceeds 1 at 8 cells.

    The world is a ring of densely connected clusters joined by single
    bridge edges — the community structure partitioned serving targets
    (and the one ``sharded_memory`` measures): per-cell tables carry
    most of the pre-processing weight while the border tier stays thin.
    On a graph with no locality every node is a border node and the
    shared border recompute hides the per-cell saving; here it cannot.
    """
    import random as _random
    import time as _time

    from repro.graph.builder import GraphBuilder
    from repro.world import MutableWorld

    rng = _random.Random(seed)
    builder = GraphBuilder()
    pool = ("pub", "mall", "cafe", "park", "imax")
    num_nodes = num_clusters * cluster_size
    for cluster in range(num_clusters):
        for position in range(cluster_size):
            builder.add_node(
                keywords=rng.sample(pool, rng.randint(0, 2)),
                x=float(cluster * 10 + position % 5),
                y=float(position // 5),
            )
    edges = set()

    def link(u: int, v: int) -> None:
        if u != v and (u, v) not in edges:
            edges.add((u, v))
            edges.add((v, u))
            obj = 1.0 + 3.0 * rng.random()
            bud = 1.0 + 3.0 * rng.random()
            builder.add_edge(u, v, obj, bud)
            builder.add_edge(v, u, obj, bud)

    for cluster in range(num_clusters):
        base = cluster * cluster_size
        # A ring inside the cluster keeps it connected, then random
        # chords make the intra-cluster tables the dominant prep cost.
        for position in range(cluster_size):
            link(base + position, base + (position + 1) % cluster_size)
        for _ in range(cluster_size * 3):
            link(base + rng.randrange(cluster_size), base + rng.randrange(cluster_size))
        # One bridge to the next cluster: the only border crossing.
        link(base, ((cluster + 1) % num_clusters) * cluster_size)
    graph = builder.build()

    xs: list[int] = []
    p50_ms: list[float] = []
    p95_ms: list[float] = []
    rebuild_ms: list[float] = []
    meta: dict = {
        "num_nodes": num_nodes,
        "num_updates": num_updates,
        "speedup_p50": {},
    }
    for cells in cell_counts:
        world = MutableWorld(graph, num_cells=cells, seed=0)
        cell_of = world.partition.cell_of
        intra = [
            (u, v)
            for u in range(num_nodes)
            for v, _obj, _bud in world.graph.out_edges(u)
            if cell_of[u] == cell_of[v]
        ]
        durations = []
        for _ in range(num_updates):
            u, v = intra[rng.randrange(len(intra))]
            cost = 1.0 + 3.0 * rng.random()
            begin = _time.perf_counter()
            world.update_edge_cost(u, v, objective=cost, budget=cost)
            durations.append((_time.perf_counter() - begin) * 1000.0)
        durations.sort()
        p50 = durations[len(durations) // 2]
        p95 = durations[min(len(durations) - 1, int(0.95 * len(durations)))]

        begin = _time.perf_counter()
        world.rebuilt()
        rebuild = (_time.perf_counter() - begin) * 1000.0

        xs.append(cells)
        p50_ms.append(p50)
        p95_ms.append(p95)
        rebuild_ms.append(rebuild)
        meta["speedup_p50"][str(cells)] = rebuild / p50 if p50 > 0 else float("inf")

    return ExperimentResult(
        figure="update_latency",
        title="Graph-update repair latency vs full rebuild",
        x_name="num_cells",
        xs=xs,
        series={
            "Repair-p50": p50_ms,
            "Repair-p95": p95_ms,
            "Full-rebuild": rebuild_ms,
        },
        y_name="ms / update",
        notes=(
            f"{num_clusters} clusters x {cluster_size} nodes, single bridge "
            "edges ({} nodes total); each update re-costs one intra-cell "
            "edge (one cell's tables + the border tier repaired); "
            "Full-rebuild is world.rebuilt() on the same partition".format(
                num_nodes
            )
        ),
        meta=meta,
    )


# ----------------------------------------------------------------------
# everything, for run_all.py
# ----------------------------------------------------------------------

def all_experiments() -> list:
    """The callables regenerating every figure, in paper order."""
    return [
        fig04_runtime_vs_keywords,
        fig05_runtime_vs_budget,
        fig06_runtime_vs_epsilon,
        fig07_ratio_vs_epsilon,
        fig08_runtime_vs_beta,
        fig09_ratio_vs_beta,
        fig10_ratio_vs_keywords,
        fig11_ratio_vs_budget,
        fig12_ratio_vs_alpha,
        fig13_failure_vs_alpha,
        fig14_runtime_equal_bound,
        fig15_ratio_equal_bound,
        fig16_topk_runtime,
        fig17_scalability,
        fig18_road_runtime_vs_keywords,
        fig19_road_runtime_vs_budget,
        ablation_opt_strategies,
        ablation_epsilon_labels,
        ablation_partition,
        ablation_disk_index,
        service_throughput,
        sharded_throughput,
        border_heavy_throughput,
        async_throughput,
        kernel_throughput,
        sharded_wave_throughput,
        sharded_memory,
        update_latency,
    ]
