"""Notes for the benchmark suite.

Each ``bench_figXX`` module exposes pytest-benchmark cells for the
figure's representative measurements plus one ``test_emit_figure`` that
regenerates and saves the complete series through
``_helpers.emit_figure`` (cheap for cells already benchmarked in the same
session — the experiment layer caches them).

Suite-wide knobs (see :mod:`repro.bench.workloads`):

* ``KOR_BENCH_QUERIES`` — queries per set (default 12, paper uses 50);
* ``KOR_BENCH_SCALE``   — small | default | paper.
"""
