"""The paper's figures under pytest-benchmark: one item per table row.

Each item times ``run_figure`` on one row of ``repro.bench.experiments.
all_experiments()``, saves the series under ``results/<scale>/`` (kept per
scale, so a small-scale run never clobbers the default-scale figures) and
asserts the row's check.  Rows share the experiment layer's cell cache, so
an item run after another that measured the same cells mostly re-assembles
series; its time is then the *remaining* grid work.

Run with ``pytest -o python_files='bench_*.py' benchmarks/bench_figures.py``.
Suite-wide knobs (see :mod:`repro.bench.workloads`):

* ``KOR_BENCH_QUERIES`` — queries per set (default 12, paper uses 50);
* ``KOR_BENCH_SCALE``   — small | default | paper.
"""

from pathlib import Path

import pytest

from repro.bench.experiments import all_experiments, run_figure
from repro.bench.workloads import bench_scale

RESULTS_DIR = Path(__file__).parent / "results" / bench_scale()


@pytest.mark.parametrize("row", all_experiments(), ids=lambda row: row.name)
def test_figure(benchmark, row):
    """Measure, save and check one figure."""
    result = benchmark.pedantic(run_figure, args=(row,), rounds=1, iterations=1)
    result.save(RESULTS_DIR)
    assert row.holds(result), result.to_table()
