"""Benchmark harness reproducing the paper's evaluation (Section 4).

The package splits into four layers:

* :mod:`repro.bench.workloads` — cached datasets, engines and query sets
  (building the Flickr-like graph and its all-pairs tables takes seconds;
  every experiment shares one copy);
* :mod:`repro.bench.harness` — timing/aggregation primitives: run one
  algorithm over one query set, compute relative ratios and failure rates;
* :mod:`repro.bench.experiments` — the figures as one table: a
  :class:`~repro.bench.experiments.Figure` row per paper figure
  (Figures 4-19) and per ablation (the optimisation strategies, epsilon
  vs label volume, partitioned tables), and one runner,
  :func:`~repro.bench.experiments.run_figure`, returning an
  :class:`~repro.bench.experiments.ExperimentResult`;
* :mod:`repro.bench.reporting` — fixed-width text / JSON emitters for
  the result series.

``python benchmarks/run_all.py`` runs every row into ``results/``;
``pytest -o python_files='bench_*.py' benchmarks/bench_figures.py``
benchmarks each row with pytest-benchmark and asserts its check.

The package measures the paper's algorithms only.  The serving stack
(HTTP host, front-end, cache, backends, sharding, live updates) has one
benchmark of its own, ``benchmarks/e2e`` (declared in ``BENCHMARK.json``),
which imports nothing from here.
"""

from repro.bench.experiments import ExperimentResult
from repro.bench.harness import QueryOutcome, RunSummary, run_query_set
from repro.bench.workloads import Workload, flickr_workload, road_workload

__all__ = [
    "ExperimentResult",
    "QueryOutcome",
    "RunSummary",
    "Workload",
    "flickr_workload",
    "road_workload",
    "run_query_set",
]
