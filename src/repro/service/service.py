"""``QueryService`` — the serving layer's front door.

Single queries go through :meth:`QueryService.submit` (cache probe,
compute on miss, record metrics); query lists go through
:meth:`QueryService.run_batch` / :meth:`QueryService.execute`, which add
in-batch dedup and dispatch the misses as waves — one shared
candidate-set pass over the index per wave — over a pluggable execution
backend (see :mod:`repro.service.batch` and
:mod:`repro.service.backends`).

The service never mutates its engine: the graph, cost tables and index
are read-only at serve time, which is what makes the concurrent paths
safe.  Results handed out for cache hits are the *same objects* the
first computation produced — treat ``KORResult`` as immutable (its
``query`` attribute names the query that first computed the entry).

Swapping the engine (:meth:`QueryService.replace_engine`) invalidates
the cache — keys describe only the query, so entries computed against
the old graph must not survive the swap.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError
from repro.graph.mutation import GraphMutator, resolve_ops
from repro.service import faults
from repro.service.backends import (
    DEFAULT_WORKERS,
    EngineHandle,
    ExecutionBackend,
    PartPatch,
)
from repro.service.base import SyncServiceBase
from repro.service.batch import BatchReport, execute_batch
from repro.service.cache import UNCACHEABLE_PARAMS, canonical_cache_key

__all__ = ["QueryService"]


@dataclass(frozen=True)
class _LocalTask:
    """What :meth:`QueryService.submit`'s inline run looks like to a
    fault plan's task hook."""

    shard: str
    query: KORQuery


class QueryService(SyncServiceBase):
    """Batched, cached, concurrent serving over one :class:`KOREngine`.

    Parameters
    ----------
    engine:
        The pre-processed engine to serve from.
    cache_capacity:
        LRU result-cache size in entries; 0 disables caching.
    default_workers:
        Fan-out width :meth:`run_batch` uses when the call does not pick
        one (in-process backends only — a process pool's width is fixed
        at backend construction).
    backend:
        Execution strategy for batches; default a
        :class:`~repro.service.backends.ThreadBackend` of
        ``default_workers`` threads owned (and closed) by this service.
        A caller-supplied backend is shared, not owned; passing a
        :class:`~repro.service.backends.ProcessBackend` moves the
        compute out of the GIL.  Either way the service registers its
        engine with the backend.
    max_cached_route_nodes:
        Optional total-route-size budget for the cache (results store
        full routes); see :class:`~repro.service.cache.ResultCache`.
    wave_size:
        Fixed wave size — how many unique computations of a batch share
        one submission; ``1`` is per-query dispatch — or ``None``
        (default) for adaptive sizing: a
        :class:`~repro.service.batch.WaveSizeController` grows waves
        from the default when the graph is dense and the observed
        arrival rate is high (see :meth:`tune_waves`).
    """

    def __init__(
        self,
        engine: KOREngine,
        cache_capacity: int = 1024,
        default_workers: int = DEFAULT_WORKERS,
        backend: ExecutionBackend | None = None,
        max_cached_route_nodes: int | None = None,
        wave_size: int | None = None,
    ) -> None:
        super().__init__(
            engine.graph,
            cache_capacity,
            default_workers,
            backend,
            max_cached_route_nodes,
            wave_size,
        )
        self._engine = engine
        self._handle = EngineHandle(engine)
        self._epoch = 0
        self._mutator: GraphMutator | None = None
        self._backend.register(self._handle)

    @classmethod
    def from_graph(cls, graph, **kwargs) -> "QueryService":
        """Convenience: pre-process *graph* and serve it."""
        return cls(KOREngine(graph), **kwargs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def engine(self) -> KOREngine:
        """The wrapped engine."""
        return self._engine

    @property
    def epoch(self) -> int:
        """Graph epoch: applied updates / engine swaps since construction.

        Clients compare this against the epoch stamped on responses to
        detect results computed against a retired graph.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # engine lifecycle
    # ------------------------------------------------------------------
    def replace_engine(self, engine: KOREngine) -> None:
        """Serve from *engine* from now on, invalidating the cache.

        The cache's epoch guard also discards results still being
        computed against the old engine when they try to store
        themselves (see :class:`~repro.service.cache.ResultCache`).
        """
        retired = self._handle
        self._engine = engine
        self._handle = EngineHandle(engine)
        # The mutation history described the retired graph.
        self._mutator = None
        self._wave_controller.retarget(engine.graph)
        self._backend.unregister(retired.key)
        self._backend.register(self._handle)
        # Cache first, epoch second: whoever reads the new epoch can no
        # longer be handed an entry of the old one.
        self._cache.invalidate()
        self._epoch += 1

    def close(self) -> None:
        """Retire this service's engine from the backend (idempotent).

        On a shared backend the handle would otherwise stay registered —
        and keep shipping to new pool workers — for the backend's
        lifetime.  The backend itself is only closed when this service
        (or :func:`~repro.service.config.build_service` on its behalf)
        created it.
        """
        self._backend.unregister(self._handle.key)
        if self._owns_backend:
            self._backend.close()

    # ------------------------------------------------------------------
    # live mutation
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> int:
        """Apply wire-shaped graph mutations; returns the new epoch.

        The flat service has no partition, so repair *is* a full
        rebuild: tables and index are recomputed over the mutated graph
        (the sharded service repairs incrementally — see
        :meth:`repro.service.sharding.ShardedQueryService.apply_ops`).
        What it shares with the sharded path is the delivery protocol:
        the engine handle is reset in place (same key), pool workers
        receive a :class:`~repro.service.backends.PartPatch` through
        their ordinary task queues, and the cache is invalidated exactly
        once after the swap — in-flight queries finish on the old-epoch
        engine and their write-backs are dropped by the epoch guard.
        """
        with self._update_lock:
            if self._mutator is None:
                self._mutator = GraphMutator(self._engine.graph)
            delta = resolve_ops(self._mutator, ops)
            engine = type(self._engine)(self._mutator.graph)
            self._engine = engine
            self._handle.reset(engine)
            # A delta that interned new keywords must ship the full
            # graph: the worker would intern in merged-delta order,
            # not op order, and disagree with the shipped index on
            # keyword ids.
            structural_only = not delta.set_keywords
            self._backend.apply_patches(
                [
                    PartPatch(
                        key=self._handle.key,
                        graph=None if structural_only else engine.graph,
                        graph_delta=delta if structural_only else None,
                        tables=engine.tables,
                        index=engine.index,
                    )
                ]
            )
            self._wave_controller.retarget(engine.graph)
            self._cache.invalidate()
            self._epoch += 1
            return self._epoch

    # ------------------------------------------------------------------
    # single queries
    # ------------------------------------------------------------------
    def submit(
        self,
        query: KORQuery,
        algorithm: str = "bucketbound",
        deadline: Deadline | None = None,
        **params,
    ) -> KORResult:
        """Answer a pre-built query, serving repeats from the cache.

        Calls carrying uncacheable parameters (``trace`` and friends, see
        :data:`repro.service.cache.UNCACHEABLE_PARAMS`) bypass the cache
        in both directions but still feed the metrics.  Single queries
        always compute in the calling thread — backends only pay off on
        batches.

        ``deadline`` travels out-of-band: it reaches the engine run but
        never the cache key, so a deadline-carrying repeat still hits the
        cache, and a search that outlives its deadline fails with
        :class:`~repro.exceptions.DeadlineExceeded` without caching
        anything.

        Cacheable misses are **single-flight protected**: concurrent
        submissions of the same canonical key fold into one engine run
        (see :meth:`repro.service.cache.ResultCache.get_or_compute`);
        the waiters count as coalesced cache-served queries.
        """
        if "deadline" in params:
            raise QueryError(
                "'deadline' is not a query parameter; pass deadline= to the "
                "service call instead"
            )
        begin = time.perf_counter()
        cacheable = not (UNCACHEABLE_PARAMS & params.keys())
        key = canonical_cache_key(query, algorithm, params) if cacheable else None
        epoch = self._cache.epoch if cacheable else None
        compute_params = params if deadline is None else {**params, "deadline": deadline}

        def compute() -> KORResult:
            # Same fault hook as the batch paths: one global load plus a
            # None check when no plan is installed.
            plan = faults._ACTIVE
            if plan is not None:
                plan.on_task(_LocalTask(self._handle.key, query))
            return self._engine.run(query, algorithm=algorithm, **compute_params)

        try:
            if cacheable:
                result, how = self._cache.get_or_compute(key, compute, epoch=epoch)
            else:
                result, how = compute(), "computed"
        except Exception:
            self._stats.record_error()
            self._stats.record_busy(time.perf_counter() - begin)
            raise
        elapsed = time.perf_counter() - begin
        if how == "coalesced":
            self._stats.record_coalesced()
        self._stats.record_query(elapsed, cached=how != "computed")
        self._stats.record_busy(elapsed)
        return result

    # ------------------------------------------------------------------
    # batches
    # ------------------------------------------------------------------
    def execute(
        self,
        queries: Sequence[KORQuery],
        algorithm: str = "bucketbound",
        workers: int | None = None,
        deadline: Deadline | None = None,
        **params,
    ) -> BatchReport:
        """Run a batch, returning the full per-slot :class:`BatchReport`.

        Failed slots carry their exception; successful slots are cached
        and unaffected.  Slot order is the submission order regardless of
        ``workers`` or backend.  ``deadline`` (out-of-band, never in
        cache keys) bounds every slot's search.
        """
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        report = execute_batch(
            self._cache,
            queries,
            algorithm=algorithm,
            workers=workers if workers is not None else self._default_workers,
            params=params,
            backend=self._backend,
            handle=self._handle,
            deadline=deadline,
            wave_size=self._wave_controller.wave_size,
            stats=self._stats,
        )
        for item in report.items:
            if item.ok:
                self._stats.record_query(item.latency_seconds, cached=item.cached)
            else:
                self._stats.record_error()
        self._stats.record_busy(report.wall_seconds)
        return report
