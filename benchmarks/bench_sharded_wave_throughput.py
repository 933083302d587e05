"""Shard-aware wave scatter vs per-attempt dispatch (``wave_size=1``).

Expected shape: on ``SerialBackend`` and ``ThreadBackend`` the wave
scatter wins modestly (fewer futures, shared candidate resolution per
shard group).  On ``ProcessBackend`` it wins big: per-attempt dispatch
pays pickle + IPC + future bookkeeping per attempt *per containment
tier* (cell-local, cross-cell, border repair), a shard wave pays it
once per wave.

This file doubles as the acceptance smoke: the ProcessBackend shard-wave
throughput must be at least 1.5x the per-query scatter on the figure1
workload over two cells.
"""

from _helpers import emit_figure
from repro.bench.experiments import sharded_wave_throughput

SERIES = ("Per-query-tasks", "Shard-waves")


def test_cell(benchmark):
    result = benchmark.pedantic(
        lambda: sharded_wave_throughput(repeats=4, backend_names=("SerialBackend",)),
        rounds=1,
        iterations=1,
    )
    assert set(result.series) == set(SERIES)
    assert result.xs == ["SerialBackend"]


def test_emit_figure(benchmark):
    result = emit_figure(benchmark, sharded_wave_throughput)
    for name in SERIES:
        assert all(value > 0 for value in result.series[name])

    position = result.xs.index("ProcessBackend")
    ratio = (
        result.series["Shard-waves"][position]
        / result.series["Per-query-tasks"][position]
    )
    assert ratio >= 1.5, (
        f"shard waves at {ratio:.2f}x of the per-query scatter on "
        "ProcessBackend — waves must amortise per-attempt pickle/IPC "
        "dispatch at least 1.5x on the two-cell figure1 workload"
    )
