#!/usr/bin/env python
"""Regenerate every figure of the paper's evaluation into results/.

Usage::

    python benchmarks/run_all.py [--only fig04,fig09] [--results DIR]

Runs each row of the figure table (``repro.bench.experiments.
all_experiments()``) through ``run_figure``; ``--only`` keeps the rows
whose name starts with one of the given prefixes.  Environment knobs (see
repro.bench.workloads): KOR_BENCH_QUERIES sets the queries per set
(default 12; the paper uses 50), KOR_BENCH_SCALE one of small / default /
paper.

Each figure saves <figure>.json + <figure>.txt and prints its table.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

from repro.bench.experiments import all_experiments, run_figure


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--only",
        default="",
        help="comma-separated figure prefixes to run (e.g. fig04,fig09)",
    )
    parser.add_argument(
        "--results",
        default=None,
        help="output directory (default benchmarks/results/<scale>)",
    )
    args = parser.parse_args(argv)
    wanted = [token for token in args.only.split(",") if token]
    rows = all_experiments()
    names = [row.name for row in rows]
    unmatched = [p for p in wanted if not any(n.startswith(p) for n in names)]
    if unmatched:
        print(
            f"--only {','.join(unmatched)} matches no figure; valid names:\n  "
            + "\n  ".join(names),
            file=sys.stderr,
        )
        return 2

    if args.results is not None:
        results_dir = Path(args.results)
    else:
        from repro.bench.workloads import bench_scale

        results_dir = Path(__file__).parent / "results" / bench_scale()
    results_dir.mkdir(parents=True, exist_ok=True)

    total_begin = time.perf_counter()
    for row in rows:
        if wanted and not any(row.name.startswith(prefix) for prefix in wanted):
            continue
        begin = time.perf_counter()
        result = run_figure(row)
        elapsed = time.perf_counter() - begin
        result.save(results_dir)
        print(result.to_table())
        print(f"[{row.name}: {elapsed:.1f}s]\n")
    print(f"total: {time.perf_counter() - total_begin:.1f}s -> {results_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
