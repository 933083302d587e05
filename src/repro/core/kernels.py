"""The :class:`KernelContext` placeholder ``benchmarks/e2e`` still builds.

Waves run in :func:`repro.service.backends.run_wave_on_engine`.
"""

from __future__ import annotations

__all__ = ["KernelContext"]


class KernelContext:
    """Attribute-only placeholder; nothing under ``src/`` reads it.

    It used to hold the lockstep driver's engine-scoped caches.  The only
    remaining constructor call is ``benchmarks/e2e/e2e_onion.py``, which
    builds ``KernelContext(engine.graph, engine.tables)`` and hands it to
    :func:`repro.service.backends.run_wave_on_engine`; the class goes
    when that benchmark drops the import.
    """

    def __init__(self, graph, tables) -> None:
        self.graph = graph
        self.tables = tables
