"""What the flat and the sharded sync service share, once.

:class:`~repro.service.service.QueryService` and
:class:`~repro.service.sharding.ShardedQueryService` differ in how they
*execute* a batch (one engine vs a routed scatter) and how they *apply*
a mutation (full rebuild vs incremental repair).  Everything around
those two — cache, stats, backend ownership, the wave-size controller,
the single-op mutation spellings, ``query`` / ``run_batch`` and the
context-manager protocol — is the same code and lives here.
"""

from __future__ import annotations

import threading
import time
from typing import Hashable, Iterable, Sequence

from repro.core.deadline import Deadline
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
from repro.service.backends import ExecutionBackend, ThreadBackend
from repro.service.batch import WaveSizeController
from repro.service.cache import ResultCache
from repro.service.stats import ServiceStats, StatsSnapshot


class SyncServiceBase:
    """Shared state and spellings of the two sync services.

    Subclasses provide ``submit``, ``execute``, ``apply_ops`` and
    ``close``.  ``backend=None`` resolves here, once, to a
    :class:`~repro.service.backends.ThreadBackend` of ``default_workers``
    threads that the service owns (``close()`` closes it); a
    caller-supplied backend is shared, not owned.
    """

    def __init__(
        self,
        graph,
        cache_capacity: int,
        default_workers: int,
        backend: ExecutionBackend | None,
        max_cached_route_nodes: int | None,
        wave_size: int | None,
    ) -> None:
        if default_workers < 1:
            raise QueryError(f"default_workers must be >= 1, got {default_workers}")
        self._owns_backend = backend is None
        self._backend = backend if backend is not None else ThreadBackend(default_workers)
        self._default_workers = default_workers
        self._cache = ResultCache(cache_capacity, max_route_nodes=max_cached_route_nodes)
        self._stats = ServiceStats()
        self._update_lock = threading.Lock()
        self._wave_controller = (
            WaveSizeController(wave_size, fixed=True)
            if wave_size is not None
            else WaveSizeController()
        )
        self._wave_controller.retarget(graph)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend waves run on."""
        return self._backend

    @property
    def cache(self) -> ResultCache:
        """The canonicalizing LRU result cache."""
        return self._cache

    @property
    def stats(self) -> ServiceStats:
        """Serving metrics (latency percentiles, hit rate, throughput)."""
        return self._stats

    def snapshot(self) -> StatsSnapshot:
        """One frozen view of the serving story.

        Beyond the raw :class:`ServiceStats` aggregates this folds in
        the backend's live submission accounting (``queue_depth_peak``)
        and, for a warm-pinned process backend, its pin counters
        (``pinning``).
        """
        pin_stats = getattr(self._backend, "pin_stats", None)
        pinning = pin_stats() if callable(pin_stats) else None
        return self._stats.snapshot(
            pinning=pinning, queue_depth_peak=self._backend.peak_in_flight
        )

    def invalidate_cache(self) -> int:
        """Drop every cached result and bump the cache epoch."""
        return self._cache.invalidate()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # wave tuning
    # ------------------------------------------------------------------
    @property
    def wave_size(self) -> int:
        """The wave size the next batch dispatch will use."""
        return self._wave_controller.wave_size

    def tune_waves(self, arrival_qps: float) -> int:
        """Feed the arrival-rate estimate into adaptive wave sizing.

        Called by :class:`~repro.service.frontend.AsyncQueryService`
        whenever its EWMA updates (and by ``/tune``); returns the wave
        size now in effect.  A service built with an explicit
        ``wave_size`` ignores the signal.
        """
        self._wave_controller.observe(arrival_qps)
        return self._wave_controller.wave_size

    def wave_policy(self) -> dict:
        """The adaptive-sizing policy snapshot (``scheduling_stats``)."""
        return self._wave_controller.describe()

    # ------------------------------------------------------------------
    # live mutation, one op at a time
    # ------------------------------------------------------------------
    def update_edge_cost(
        self,
        u: int,
        v: int,
        objective: float | None = None,
        budget: float | None = None,
    ) -> int:
        """Re-cost edge ``(u, v)``; returns the new epoch."""
        op = {"op": "update_edge_cost", "u": u, "v": v}
        if objective is not None:
            op["objective"] = objective
        if budget is not None:
            op["budget"] = budget
        return self.apply_ops([op])

    def close_node(self, node: int) -> int:
        """Take *node* out of service; returns the new epoch."""
        return self.apply_ops([{"op": "close_node", "node": node}])

    def open_node(self, node: int) -> int:
        """Restore a closed node; returns the new epoch."""
        return self.apply_ops([{"op": "open_node", "node": node}])

    def update_keywords(self, node: int, keywords: Iterable[str]) -> int:
        """Replace *node*'s keywords; returns the new epoch."""
        return self.apply_ops(
            [{"op": "update_keywords", "node": node, "keywords": list(keywords)}]
        )

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def query(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
        algorithm: str = "bucketbound",
        **params,
    ) -> KORResult:
        """Answer one KOR query through the cache (mirrors ``engine.query``)."""
        return self.submit(
            KORQuery(source, target, tuple(keywords), budget_limit),
            algorithm=algorithm,
            **params,
        )

    def serve_cached(self, key: Hashable) -> KORResult | None:
        """The cached answer under canonical *key*, or None on a miss.

        A hit is booked as ``execute`` books a cached slot; a miss books
        nothing and is left to the ``execute`` that follows.  Never
        waits on a computation: the async front-end calls it on the
        event loop, ahead of building a flight.
        """
        begin = time.perf_counter()
        result = self._cache.hit(key)
        if result is not None:
            self._stats.record_query(0.0, cached=True)
            self._stats.record_busy(time.perf_counter() - begin)
        return result

    def run_batch(
        self,
        queries: Sequence[KORQuery],
        algorithm: str = "bucketbound",
        workers: int | None = None,
        deadline: Deadline | None = None,
        **params,
    ) -> list[KORResult]:
        """Run a batch and return its results in submission order.

        Raises :class:`repro.service.batch.BatchError` (carrying the full
        report) when any slot failed.
        """
        return self.execute(
            queries,
            algorithm=algorithm,
            workers=workers,
            deadline=deadline,
            **params,
        ).results()
