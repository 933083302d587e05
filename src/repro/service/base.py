"""``RoutedService`` — the one sync service: one engine over a world.

:class:`~repro.service.service.QueryService` and
:class:`~repro.service.sharding.ShardedQueryService` are two accessor
names over this one implementation.  It serves a
:class:`~repro.world.MutableWorld` through **one**
:class:`~repro.core.engine.KOREngine` and one registered backend handle
— over the one cell's tables when the world has one cell, else over
every cell's tables plus the border tier — and every call takes the
same path:

* a **query** is one search: the cache misses go out as waves
  (:func:`~repro.service.batch.dispatch_waves`) and each outcome is its
  slot's result or error, cached when it is a result;
* an **update** is applied by the world (incremental row repair), the
  engine is reassembled over the new parts, the parts it replaced ship
  to pool workers in one :class:`~repro.service.backends.PartPatch`, the
  cache is invalidated and the new epoch published.

The flat tier is the one-cell world: its cell *is* the graph (identity
id maps), so an update repairs the rows of one table pair.
"""

from __future__ import annotations

import itertools
import threading
import time
from typing import Hashable, Iterable, Mapping, Sequence

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.exceptions import QueryError, ServiceClosed
from repro.service import batch
from repro.service.backends import (
    EngineHandle,
    ExecutionBackend,
    PartPatch,
    SerialBackend,
)
from repro.service.batch import (
    BatchItem,
    BatchReport,
    batch_keys,
    dedup_units,
    dispatch_waves,
)
from repro.service.cache import ResultCache
from repro.service.stats import ServiceStats, StatsSnapshot
from repro.world import MutableWorld, WorldUpdate

_SERVICE_COUNTER = itertools.count()


class RoutedService:
    """Cached, backend-executed serving of one engine over a mutable world.

    ``backend=None`` resolves here, once, to a
    :class:`~repro.service.backends.SerialBackend` that the service owns
    (``close()`` closes it); a caller-supplied backend is shared, not
    owned.  ``engine``, when given, is served as the one cell's engine
    until the first update (the flat tier's own engine object).
    ``close()`` releases the engine, world and handle: afterwards the
    accessors that read them, updates and batches raise
    :class:`~repro.exceptions.ServiceClosed`.
    """

    def __init__(
        self,
        world: MutableWorld,
        cache_capacity: int,
        backend: ExecutionBackend | None,
        engine: KOREngine | None = None,
    ) -> None:
        self._owns_backend = backend is None
        self._backend = backend if backend is not None else SerialBackend()
        self._cache = ResultCache(cache_capacity)
        self._stats = ServiceStats()
        self._update_lock = threading.Lock()
        self._epoch = world.epoch
        self._world = world
        # The tier names the engine: what the stats count its answers as.
        self._tier = "cell" if world.num_cells == 1 else "crosscell"
        self._engine = engine if engine is not None else self._assemble()
        self._handle = EngineHandle(self._engine, key=f"svc{next(_SERVICE_COUNTER)}/{self._tier}")
        self._backend.register(self._handle)

    def _assemble(self) -> KOREngine:
        """The engine over the world as it stands: over the one cell's
        tables, or over every cell's plus the border tier."""
        world = self._world
        tables = world.cells[0].tables if world.num_cells == 1 else world.tables
        return KOREngine(world.graph, tables=tables, index=world.index)

    def _open_world(self) -> MutableWorld:
        """The served world; raises :class:`~repro.exceptions.ServiceClosed`
        once ``close()`` has released it."""
        if self._world is None:
            raise ServiceClosed(f"{type(self).__name__} is closed")
        return self._world

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def backend(self) -> ExecutionBackend:
        """The execution backend waves run on."""
        return self._backend

    @property
    def engine(self) -> KOREngine:
        """The engine serving now, the one every query runs on: a
        :class:`KOREngine` over the one cell's tables, or over the
        partitioned tables of a world of more cells.  Reassembled over
        the repaired parts by every update."""
        self._open_world()
        return self._engine

    @property
    def cache(self) -> ResultCache:
        """The canonicalizing LRU result cache."""
        return self._cache

    @property
    def stats(self) -> ServiceStats:
        """Serving metrics (latency percentiles, hit rate, throughput)."""
        return self._stats

    @property
    def epoch(self) -> int:
        """Graph epoch in force: the number of applied updates.

        Published once an update's parts are installed and the cache is
        invalidated, so whoever reads epoch N is answered from state at
        least that new.  Clients compare it against the epoch stamped on
        responses to detect results computed against a retired graph.
        """
        return self._epoch

    def snapshot(self) -> StatsSnapshot:
        """One frozen view of the serving story.

        Beyond the raw :class:`ServiceStats` aggregates this folds in
        the backend's live submission accounting (``queue_depth_peak``)
        and, for a process backend, its lane counters (``pinning``).
        """
        pin_stats = getattr(self._backend, "pin_stats", None)
        pinning = pin_stats() if callable(pin_stats) else None
        return self._stats.snapshot(pinning=pinning, queue_depth_peak=self._backend.peak_in_flight)

    def invalidate_cache(self) -> int:
        """Drop every cached result and bump the cache epoch."""
        return self._cache.invalidate()

    def close(self) -> None:
        """Retire this service's engine and release what it serves
        (idempotent).

        The handle is unregistered — on a shared backend the engine
        would otherwise stay alive, and be re-shipped to every new pool
        worker, for the backend's lifetime.  The backend itself is only
        closed when this service (or
        :func:`~repro.service.config.build_service` on its behalf)
        created it.  The engine, world and handle are then dropped, so
        whoever still holds the closed service (a server's front end, a
        harness's last deployment) no longer holds its tables; reading
        them, updating or running a batch afterwards raises
        :class:`~repro.exceptions.ServiceClosed`.  Counters, the stats
        snapshot and the cache are left as they stand.
        """
        with self._update_lock:  # an update in flight lands first
            if self._world is None:
                return
            self._backend.unregister(self._handle.key)
            if self._owns_backend:
                self._backend.close()
            self._engine = self._world = self._handle = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    @property
    def wave_size(self) -> int:
        """How many queries one batch dispatch ships per submission:
        :data:`repro.service.batch.DEFAULT_WAVE_SIZE`, read at dispatch."""
        return batch.DEFAULT_WAVE_SIZE

    # ------------------------------------------------------------------
    # live mutation
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> int:
        """Apply wire-shaped graph mutations; returns the new epoch.

        The world performs the incremental repair (only the rows the
        change can move, in the touched cells and the border tier); the
        new parts then land under an **epoch fence**: the handle is reset
        in place (same key), and pool workers receive each replaced part
        whole — graph, tables or index, in a
        :class:`~repro.service.backends.PartPatch` — through their
        ordinary FIFO task queues, so every task submitted before the
        update runs against the old state and every task after against
        the new.  The result cache is invalidated exactly once at the
        end, which also drops write-backs from queries still finishing on
        the old graph.
        """
        with self._update_lock:
            self._integrate(self._open_world().apply_ops(ops))
            return self._epoch

    def _integrate(self, update: WorldUpdate) -> None:
        """Land one applied :class:`~repro.world.WorldUpdate` in the
        serving plane (caller holds the update lock).

        The engine always refreshes: even a keyword-only change rewrote
        the graph it binds queries against."""
        world = self._world
        self._engine = self._assemble()
        self._handle.reset(self._engine)
        retabled = bool(update.repaired_cells) or update.border_rebuilt
        patch = PartPatch(
            key=self._handle.key,
            graph=world.graph,
            tables=self._engine.tables if retabled else None,
            index=world.index if update.index_rebuilt else None,
        )
        self._backend.apply_patches([patch])
        # Cache first, epoch second: whoever reads the new epoch can no
        # longer be handed an entry of the old one.
        self._cache.invalidate()
        self._epoch += 1

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

    def submit(
        self,
        query: KORQuery,
        algorithm: str = "bucketbound",
        deadline: Deadline | None = None,
        **params,
    ) -> KORResult:
        """Answer a pre-built query: ``execute([query])``, returning the
        slot's result or raising its error.

        Calls carrying uncacheable parameters (``trace``, see
        :data:`repro.service.cache.UNCACHEABLE_PARAMS`) bypass the cache
        in both directions.  ``deadline`` travels out-of-band: it bounds
        the wave but never enters the cache key, so a search that
        outlives it fails with :class:`~repro.exceptions.DeadlineExceeded`
        and caches nothing.  Concurrent identical requests are coalesced
        by the async front end
        (:class:`~repro.service.frontend.AsyncQueryService`), not here.
        """
        item = self.execute([query], algorithm=algorithm, deadline=deadline, **params).items[0]
        if item.error is not None:
            raise item.error
        return item.result

    def run_batch(
        self,
        queries: Sequence[KORQuery],
        algorithm: str = "bucketbound",
        deadline: Deadline | None = None,
        **params,
    ) -> list[KORResult]:
        """Run a batch and return its results in submission order.

        Raises :class:`repro.service.batch.BatchError` (carrying the full
        report) when any slot failed.
        """
        return self.execute(queries, algorithm=algorithm, deadline=deadline, **params).results()

    def execute(
        self,
        queries: Sequence[KORQuery],
        algorithm: str = "bucketbound",
        deadline: Deadline | None = None,
        **params,
    ) -> BatchReport:
        """Run a batch through the cache and the backend.

        Every slot is probed against the cache, the misses deduplicated
        by canonical key, and the unique misses go out as waves of one
        search each on the service's engine.  Slot order is submission
        order on every backend; one failing query marks only its own
        slot and nothing about it is cached.

        ``deadline`` (out-of-band, never in cache keys) bounds every
        search.  A closed service raises
        :class:`~repro.exceptions.ServiceClosed` and counts nothing.
        """
        handle = self._handle  # read once: close() may drop it meanwhile
        if handle is None:
            raise ServiceClosed(f"{type(self).__name__} is closed")
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        if "binding" in params or "candidates" in params:
            # A binding describes exactly one query and every wave resolves
            # its own candidate map, so a batch-wide value is always wrong.
            raise QueryError(
                "'binding'/'candidates' cannot be passed to a batch: they are "
                "per-query; use engine.run() directly to supply them"
            )
        if "trace" in params and not self._backend.in_process:
            # The worker would fill a pickled *copy* of the caller's trace
            # sink; refusing beats silently returning an empty trace.
            raise QueryError(
                "'trace' cannot cross the process boundary: run traced queries "
                "on the serial backend or engine.run()"
            )
        begin = time.perf_counter()
        queries = list(queries)
        items = [BatchItem(index=i, query=query) for i, query in enumerate(queries)]
        cacheable, keys = batch_keys(queries, algorithm, dict(params))
        epoch = self._cache.epoch if cacheable else None
        units = dedup_units(items, keys, self._cache, cacheable, epoch)

        if units:
            # dispatch_waves chunks the searches into waves of wave_size,
            # one submission (on a process pool one pickle + IPC round
            # trip) each, with its containment tiers: a poisoned member
            # errors its own slot, and a wave whose submission breaks is
            # resubmitted as waves of one.
            key = handle.key
            outcomes = dispatch_waves(
                self._backend,
                key,
                [unit.query for unit in units],
                algorithm,
                params,
                deadline,
                self.wave_size,
                stats=self._stats,
            )
            for unit, outcome in zip(units, outcomes):
                result, error = outcome.result, outcome.error
                if error is None and result is None:  # pragma: no cover - backends set one
                    error = QueryError("backend returned an empty task outcome")
                self._stats.record_shard(key, errors=0 if error is None else 1)
                if error is not None:
                    self._stats.record_merge("error")
                else:
                    self._stats.record_merge(self._tier if result.feasible else "infeasible")
                    if cacheable:
                        self._cache.put(unit.key, result, epoch=epoch)
                for slot in unit.slots:
                    item = items[slot]
                    item.result, item.error, item.shard = result, error, key
                    item.latency_seconds = outcome.latency_seconds

        report = BatchReport(items=items, wall_seconds=time.perf_counter() - begin)
        for item in report.items:
            if item.ok:
                self._stats.record_query(item.latency_seconds, cached=item.cached)
            else:
                self._stats.record_error()
        self._stats.record_busy(report.wall_seconds)
        return report
