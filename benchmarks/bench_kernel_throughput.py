"""Batch-wave dispatch vs one submission per query (``wave_size=1``).

Expected shape: on ``SerialBackend`` and ``ThreadBackend`` the two modes
stay in the same ballpark (the wave saves per-task future bookkeeping
and shares candidate resolution, but figure-1 searches are microseconds
so there is little to amortise).  On ``ProcessBackend`` the wave wins
big: per-query dispatch pays pickle + IPC + future per query, a wave
pays it once per ``wave_size`` queries — the scatter overhead that
capped sharded serving at ~2.8k qps closes here.

This file doubles as the acceptance smoke: the ProcessBackend batch-wave
throughput must be at least 2x the per-query loop on the figure1
workload — that ratio is the transport amortisation waves exist for.
"""

from _helpers import emit_figure
from repro.bench.experiments import kernel_throughput

SERIES = ("Per-query-tasks", "Batch-wave")


def test_cell(benchmark):
    result = benchmark.pedantic(
        lambda: kernel_throughput(repeats=4, backend_names=("SerialBackend",)),
        rounds=1,
        iterations=1,
    )
    assert set(result.series) == set(SERIES)
    assert result.xs == ["SerialBackend"]


def test_emit_figure(benchmark):
    result = emit_figure(benchmark, kernel_throughput)
    for name in SERIES:
        assert all(value > 0 for value in result.series[name])

    position = result.xs.index("ProcessBackend")
    ratio = result.series["Batch-wave"][position] / result.series["Per-query-tasks"][position]
    assert ratio >= 2.0, (
        f"batch-wave at {ratio:.2f}x of the per-query loop on ProcessBackend — "
        "waves must amortise per-query pickle/IPC dispatch at least 2x on the "
        "figure1 workload"
    )
