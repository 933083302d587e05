"""``QueryService`` — the serving layer's front door over one engine.

Single queries go through :meth:`~repro.service.base.RoutedService.submit`
(a batch of one); query lists go through
``run_batch`` / ``execute``, which add in-batch dedup and dispatch the
misses as waves — one shared candidate-set pass over the index per wave —
over a pluggable execution backend (see :mod:`repro.service.batch` and
:mod:`repro.service.backends`).

This is the one-cell configuration of the routed service
(:mod:`repro.service.base`): the engine's graph, tables and index are
adopted as the one cell of a :class:`~repro.world.MutableWorld` without
being rebuilt, and the engine object itself serves until the first
update.  An update repairs the rows it can change
(:meth:`~repro.world.MutableWorld.apply_ops`) — bitwise a rebuild — and
the cell's engine is re-assembled over the repaired parts.

Results handed out for cache hits are the *same objects* the first
computation produced — treat ``KORResult`` as immutable (its ``query``
attribute names the query that first computed the entry).  An update
invalidates the cache: keys describe only the query, so entries computed
against the old graph must not survive it.
"""

from __future__ import annotations

from repro.core.engine import KOREngine
from repro.service.backends import ExecutionBackend
from repro.service.base import RoutedService
from repro.world import MutableWorld

__all__ = ["QueryService"]


class QueryService(RoutedService):
    """Batched, cached serving over one :class:`KOREngine`.

    Parameters
    ----------
    engine:
        The pre-processed engine to serve from.
    cache_capacity:
        LRU result-cache size in entries; 0 disables caching.
    backend:
        Execution strategy for batches; default a
        :class:`~repro.service.backends.SerialBackend` (waves run inline)
        owned (and closed) by this service.  A caller-supplied backend is
        shared, not owned; passing a
        :class:`~repro.service.backends.ProcessBackend` moves the
        compute out of the GIL.  Either way the service registers its
        engine with the backend.
    """

    def __init__(
        self,
        engine: KOREngine,
        cache_capacity: int = 1024,
        backend: ExecutionBackend | None = None,
    ) -> None:
        super().__init__(MutableWorld.from_engine(engine), cache_capacity, backend, engine=engine)

    @classmethod
    def from_graph(cls, graph, **kwargs) -> "QueryService":
        """Convenience: pre-process *graph* and serve it."""
        return cls(KOREngine(graph), **kwargs)
