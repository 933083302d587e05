#!/usr/bin/env python
"""Benchmark-regression gate: run the small-scale serving suite, emit a
``BENCH_*.json``, and compare it against a committed baseline.

CI runs::

    python benchmarks/regression_gate.py run --output BENCH_pr.json
    python benchmarks/regression_gate.py compare \
        --baseline benchmarks/baselines/BENCH_baseline.json \
        --candidate BENCH_pr.json

``compare`` exits non-zero when any throughput metric regressed by more
than ``--threshold`` (default 0.25, i.e. 25%).

Cross-machine comparability
---------------------------
Raw queries/second are meaningless across runner generations, so the
gate scores **normalized throughput**: each qps value is multiplied by
the wall time of a fixed pure-Python + numpy calibration workload.  A
machine that is uniformly 2x slower halves both factors' deviation,
leaving the product roughly stable, while a code regression slows the
benchmark but not the calibration and drags the normalized value down.
The suite runs ``ROUNDS`` times with the calibration re-measured inside
*each* round (so drifting background load on a shared runner is
normalized out round by round) and every metric keeps its best round.
Raw values are kept in the JSON (``raw_qps`` / ``calibration_seconds``)
so the artifact trail still shows absolute numbers.

Refreshing the baseline
-----------------------
After an intentional performance change, regenerate and commit::

    KOR_BENCH_SCALE=small KOR_BENCH_QUERIES=6 \
        python benchmarks/regression_gate.py run \
        --output benchmarks/baselines/BENCH_baseline.json

or push with ``[refresh-baseline]`` in the commit message: the workflow
skips the compare step for that run (see ``.github/workflows/ci.yml``)
so the refreshed baseline can land without gating against itself.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

SCHEMA_VERSION = 1
DEFAULT_THRESHOLD = 0.25
#: Repeats of the whole suite; per-metric normalized throughput keeps
#: the best round so a scheduler hiccup on a busy CI runner does not
#: fail the gate.
ROUNDS = 3
#: Stream repetition for the cached-serving figures: long enough that
#: the warm (all-cache-hit) pass is measured over milliseconds, not
#: clock-resolution noise.
SERVICE_REPEATS = 20


def _calibration_seconds() -> float:
    """Wall seconds of a fixed CPU workload (min of 3 runs).

    Mixes pure-Python dict/loop work with a numpy reduction — the same
    blend the query engines exercise — so the scale factor tracks what
    actually bounds the benchmarks.
    """
    import numpy as np

    def one_run() -> float:
        begin = time.perf_counter()
        acc = {}
        for i in range(200_000):
            acc[i & 1023] = acc.get(i & 1023, 0) + (i ^ (i >> 3))
        matrix = np.arange(250_000, dtype=np.float64).reshape(500, 500)
        for _ in range(10):
            matrix = np.minimum(matrix, matrix.T + 1.0)
        float(matrix.sum())
        return time.perf_counter() - begin

    return min(one_run() for _ in range(3))


def _collect_round() -> tuple[float, dict[str, float]]:
    """One calibrated round: (calibration_seconds, qps per metric)."""
    calibration = _calibration_seconds()
    return calibration, _collect_qps()


def _collect_qps() -> dict[str, float]:
    """One round of the small serving suite, as queries/second."""
    from repro.bench.experiments import (
        border_heavy_throughput,
        clear_cell_cache,
        kernel_throughput,
        service_throughput,
        sharded_throughput,
        sharded_wave_throughput,
        update_latency,
    )

    clear_cell_cache()
    metrics: dict[str, float] = {}

    service = service_throughput(repeats=SERVICE_REPEATS)
    for position, dataset in enumerate(service.xs):
        for mode, series_name in (
            ("sequential", "Engine-sequential"),
            ("cold", "Service-cold"),
            ("warm", "Service-warm"),
        ):
            ms = service.series[series_name][position]
            if ms > 0:
                metrics[f"service/{dataset}/{mode}_qps"] = 1000.0 / ms

    # Serial + thread only: process-pool throughput depends on the
    # runner's core count, which the normalization cannot absorb — and
    # skipping it also skips paying for pool spin-up three times per run.
    gated_backends = ("SerialBackend", "ThreadBackend")
    sharded = sharded_throughput(backend_names=gated_backends)
    for position, dataset in enumerate(sharded.xs):
        for backend in gated_backends:
            metrics[f"sharded/{dataset}/{backend}_qps"] = sharded.series[backend][
                position
            ]

    # Border-heavy (cross-cell) mix: every query runs on the cross-cell
    # assembly, so this is the latency figure that catches a BorderEngine
    # or scatter-path regression the natural mix would average away.
    border = border_heavy_throughput(backend_names=gated_backends)
    for position, dataset in enumerate(border.xs):
        for backend in gated_backends:
            metrics[f"border/{dataset}/{backend}_qps"] = border.series[backend][position]

    # Batch-wave dispatch vs wave_size=1, serial + thread only (same
    # no-process policy as above).  One dispatch path serves both sizes;
    # the metric names predate that and are kept so the committed
    # baseline still compares.
    kernel = kernel_throughput(backend_names=gated_backends)
    for position, backend in enumerate(kernel.xs):
        metrics[f"kernel/{backend}/per_query_qps"] = kernel.series["Per-query-tasks"][position]
        metrics[f"kernel/{backend}/wave_qps"] = kernel.series["Batch-wave"][position]

    # Shard-aware wave scatter vs wave_size=1 (one submission per
    # attempt), same policy and the same note on metric names.
    wave = sharded_wave_throughput(backend_names=gated_backends)
    for position, backend in enumerate(wave.xs):
        metrics[f"wave/{backend}/per_query_qps"] = wave.series["Per-query-tasks"][position]
        metrics[f"wave/{backend}/wave_qps"] = wave.series["Shard-waves"][position]

    # Dynamic-world repair: updates/second at each cell granularity, plus
    # the full-rebuild rate it must beat.  Gating both sides catches a
    # repair-path slowdown and a rebuild-path slowdown independently.
    update = update_latency()
    for position, cells in enumerate(update.xs):
        p50 = update.series["Repair-p50"][position]
        rebuild = update.series["Full-rebuild"][position]
        if p50 > 0:
            metrics[f"update/cells{cells}/repair_ups"] = 1000.0 / p50
        if rebuild > 0:
            metrics[f"update/cells{cells}/rebuild_ups"] = 1000.0 / rebuild
    return metrics


def run(output: Path) -> dict:
    """Measure everything and write the gate JSON to *output*."""
    import os

    raw: dict[str, float] = {}
    normalized: dict[str, float] = {}
    calibrations: list[float] = []
    for _ in range(ROUNDS):
        calibration, qps_round = _collect_round()
        calibrations.append(calibration)
        for name, qps in qps_round.items():
            raw[name] = max(qps, raw.get(name, 0.0))
            normalized[name] = max(qps * calibration, normalized.get(name, 0.0))
    payload = {
        "schema": SCHEMA_VERSION,
        "env": {
            "KOR_BENCH_SCALE": os.environ.get("KOR_BENCH_SCALE", "default"),
            "KOR_BENCH_QUERIES": os.environ.get("KOR_BENCH_QUERIES", "12"),
            "python": sys.version.split()[0],
        },
        "calibration_seconds": calibrations,
        "raw_qps": raw,
        # The gated numbers: dimensionless, machine-normalized per round.
        "metrics": normalized,
    }
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(raw)} metrics -> {output}")
    for name in sorted(raw):
        print(f"  {name:44s} {raw[name]:12.1f} qps  (normalized {payload['metrics'][name]:.3f})")
    return payload


def compare(baseline_path: Path, candidate_path: Path, threshold: float) -> int:
    """Exit status 0 when no metric regressed beyond *threshold*."""
    baseline = json.loads(baseline_path.read_text())
    candidate = json.loads(candidate_path.read_text())
    if baseline.get("schema") != candidate.get("schema"):
        print(
            f"schema mismatch: baseline {baseline.get('schema')} vs "
            f"candidate {candidate.get('schema')}; refresh the baseline"
        )
        return 1

    base_metrics = baseline["metrics"]
    cand_metrics = candidate["metrics"]
    failures: list[str] = []
    print(f"{'metric':44s} {'baseline':>10} {'candidate':>10} {'ratio':>7}")
    for name in sorted(base_metrics):
        base = base_metrics[name]
        cand = cand_metrics.get(name)
        if cand is None:
            failures.append(f"{name}: missing from candidate run")
            continue
        ratio = cand / base if base > 0 else float("inf")
        flag = ""
        if ratio < 1.0 - threshold:
            failures.append(
                f"{name}: {100 * (1 - ratio):.1f}% below baseline "
                f"({cand:.3f} vs {base:.3f} normalized)"
            )
            flag = "  << REGRESSION"
        print(f"{name:44s} {base:10.3f} {cand:10.3f} {ratio:7.2f}{flag}")
    for name in sorted(set(cand_metrics) - set(base_metrics)):
        print(f"{name:44s} {'-':>10} {cand_metrics[name]:10.3f}   (new, not gated)")

    if failures:
        print(f"\nFAIL: {len(failures)} metric(s) regressed >", f"{100 * threshold:.0f}%:")
        for failure in failures:
            print(f"  - {failure}")
        print(
            "\nIf this slowdown is intentional, refresh the baseline "
            "(see the module docstring / workflow comments)."
        )
        return 1
    print(f"\nOK: no metric regressed more than {100 * threshold:.0f}%")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)

    run_parser = commands.add_parser("run", help="measure and write a BENCH json")
    run_parser.add_argument("--output", type=Path, required=True)

    compare_parser = commands.add_parser(
        "compare", help="gate a candidate run against a committed baseline"
    )
    compare_parser.add_argument("--baseline", type=Path, required=True)
    compare_parser.add_argument("--candidate", type=Path, required=True)
    compare_parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD)

    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.output)
        return 0
    return compare(args.baseline, args.candidate, args.threshold)


if __name__ == "__main__":
    sys.exit(main())
