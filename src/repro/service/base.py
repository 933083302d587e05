"""``RoutedService`` — the one sync service: routed waves over a world.

:class:`~repro.service.service.QueryService` and
:class:`~repro.service.sharding.ShardedQueryService` are two accessor
names over this one implementation.  It serves a
:class:`~repro.world.MutableWorld` — one engine per cell, over that
cell's subgraph, tables and index, plus (with more than one cell) the
cross-cell :class:`~repro.service.crosscell.BorderEngine` — and every
call takes the same path:

* a **query** is planned (:meth:`RoutedService._plan`), its attempts go
  out as waves (:func:`~repro.service.batch.dispatch_waves`), the
  outcomes merge (:meth:`RoutedService._merge`) and the winner is
  cached;
* an **update** is applied by the world (incremental row repair), the
  parts it replaced ship to pool workers in
  :class:`~repro.service.backends.PartPatch` objects, the cache is
  invalidated and the new epoch published.

The flat tier is the one-cell world: its cell *is* the graph (identity
id maps), it registers exactly one backend handle and builds
no cross-cell twin, so a query is one cell attempt and an update repairs
the rows of one table pair.  The routing rule for more cells lives in
:mod:`repro.service.sharding`.
"""

from __future__ import annotations

import itertools
import threading
import time
from dataclasses import dataclass, replace
from typing import Hashable, Iterable, Mapping, Sequence

import numpy as np

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.core.route import Route
from repro.exceptions import QueryError
from repro.service import batch
from repro.service.backends import (
    EngineHandle,
    ExecutionBackend,
    PartPatch,
    SerialBackend,
    TaskOutcome,
)
from repro.service.batch import (
    BatchItem,
    BatchReport,
    batch_keys,
    dedup_units,
    dispatch_waves,
)
from repro.service.cache import ResultCache
from repro.service.crosscell import BorderEngine
from repro.service.stats import ServiceStats, StatsSnapshot
from repro.world import CellState, MutableWorld, WorldUpdate

_SERVICE_COUNTER = itertools.count()

#: Routing decisions, as reported by ``plan_of``.
LOCAL = "local"
SPAN_ENDPOINTS = "endpoints-span-cells"
SPAN_KEYWORDS = "keywords-span-cells"
MISSING_KEYWORDS = "keywords-missing-from-graph"
INVALID_ENDPOINTS = "invalid-endpoints"


@dataclass(frozen=True)
class Shard:
    """One cell's worth of serving state.

    ``to_global[local_id] == global_id``; ``to_local`` is the inverse
    mapping (global ids of this cell only).
    """

    key: str
    cell: int
    engine: KOREngine
    handle: EngineHandle
    to_local: dict[int, int]
    to_global: np.ndarray

    @property
    def num_nodes(self) -> int:
        """Node count of the cell's induced subgraph."""
        return len(self.to_global)


class RoutedService:
    """Cached, routed, backend-executed serving over a mutable world.

    ``backend=None`` resolves here, once, to a
    :class:`~repro.service.backends.SerialBackend` that the service owns
    (``close()`` closes it); a caller-supplied backend is shared, not
    owned.  ``engine``, when given, is served as the one cell's engine
    until the first update (the flat tier's own engine object).
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
        self._prefix = f"svc{next(_SERVICE_COUNTER)}/"
        self._epoch = world.epoch
        # One registered handle per cell, plus the cross-cell twin when
        # there is more than one cell.
        self._world = world
        self._graph = world.graph
        self._shards = tuple(self._build_shard(state, engine=engine) for state in world.cells)
        if len(self._shards) == 1:
            # The one cell is the whole graph: a twin would recompute its
            # every answer.
            self._border_engine = self._crosscell_handle = None
        else:
            self._border_engine = BorderEngine(self._graph, tables=world.tables, index=world.index)
            self._crosscell_handle = EngineHandle(
                self._border_engine, key=f"{self._prefix}crosscell"
            )
        for handle in self._handles():
            self._backend.register(handle)

    def _build_shard(
        self,
        state: CellState,
        handle: EngineHandle | None = None,
        engine: KOREngine | None = None,
    ) -> Shard:
        """A :class:`Shard` over one world cell's pre-built parts.

        With ``handle`` given (live update), the existing handle is
        reset in place so every registry keyed by it stays valid.
        """
        if engine is None:
            engine = KOREngine(state.subgraph, tables=state.tables, index=state.index)
        if handle is None:
            handle = EngineHandle(engine, key=f"{self._prefix}cell-{state.cell}")
        else:
            handle.reset(engine)
        return Shard(
            key=handle.key,
            cell=state.cell,
            engine=engine,
            handle=handle,
            to_local=state.to_local,
            to_global=state.to_global,
        )

    def _handles(self) -> list[EngineHandle]:
        handles = [shard.handle for shard in self._shards]
        if self._crosscell_handle is not None:
            handles.append(self._crosscell_handle)
        return handles

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
        """Retire this service's engines from the backend (idempotent).

        Every handle is unregistered — on a shared backend the engines
        would otherwise stay alive, and be re-shipped to every new pool
        worker, for the backend's lifetime.  The backend itself is only
        closed when this service (or
        :func:`~repro.service.config.build_service` on its behalf)
        created it.  A closed service must not serve further batches.
        """
        for handle in self._handles():
            self._backend.unregister(handle.key)
        if self._owns_backend:
            self._backend.close()

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
        new parts then land under an **epoch fence**: affected handles
        are reset in place (same keys), and pool workers receive each
        replaced part whole — graph, tables or index, in a
        :class:`~repro.service.backends.PartPatch` — through their
        ordinary FIFO task queues, so every task submitted before the
        update runs against the old state and every task after against
        the new.  The result cache is invalidated exactly once at the
        end, which also drops write-backs from queries still finishing on
        the old graph.
        """
        with self._update_lock:
            self._integrate(self._world.apply_ops(ops))
            return self._epoch

    def _integrate(self, update: WorldUpdate) -> None:
        """Land one applied :class:`~repro.world.WorldUpdate` in the
        serving plane (caller holds the update lock)."""
        world = self._world
        self._graph = world.graph

        patches: list[PartPatch] = []
        shards = list(self._shards)
        for cell in update.refreshed_cells:
            state = world.cells[cell]
            reindexed = state.index is not shards[cell].engine.index
            shards[cell] = self._build_shard(state, handle=shards[cell].handle)
            patches.append(
                PartPatch(
                    key=shards[cell].key,
                    graph=state.subgraph,
                    tables=state.tables if cell in update.repaired_cells else None,
                    index=state.index if reindexed else None,
                )
            )
        self._shards = tuple(shards)

        if self._crosscell_handle is not None:
            # The cross-cell twin always refreshes: even a keyword-only
            # change rewrote the full graph it binds queries against.
            self._border_engine = BorderEngine(self._graph, tables=world.tables, index=world.index)
            self._crosscell_handle.reset(self._border_engine)
            retabled = bool(update.repaired_cells) or update.border_rebuilt
            patches.append(
                PartPatch(
                    key=self._crosscell_handle.key,
                    graph=self._graph,
                    tables=world.tables if retabled else None,
                    index=world.index if update.index_rebuilt else None,
                )
            )
        self._backend.apply_patches(patches)
        # Cache first, epoch second: whoever reads the new epoch can no
        # longer be handed an entry of the old one.
        self._cache.invalidate()
        self._epoch += 1

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def _plan(self, query: KORQuery) -> tuple[str, Shard | None]:
        """The routing decision for *query* and the cell it addresses
        (None: the cross-cell twin alone).  The one cell of a one-cell
        world is addressed by every plan: it is the whole graph."""
        reason, shard = self._route(query)
        return reason, self._shards[0] if len(self._shards) == 1 else shard

    def _route(self, query: KORQuery) -> tuple[str, Shard | None]:
        n = self._graph.num_nodes
        if not (0 <= query.source < n and 0 <= query.target < n):
            # Let the full-graph engine produce the canonical QueryError.
            return INVALID_ENDPOINTS, None
        table = self._graph.keyword_table
        keyword_ids = [table.get(word) for word in query.keywords]
        if any(kid is None for kid in keyword_ids):
            # Absent from the whole vocabulary: no engine can cover it.
            # One full-graph run produces the canonical infeasible answer
            # cheaply (binding fails before any search).
            return MISSING_KEYWORDS, None
        cell_of = self._world.partition.cell_of
        src_cell = int(cell_of[query.source])
        if int(cell_of[query.target]) != src_cell:
            return SPAN_ENDPOINTS, None
        shard = self._shards[src_cell]
        for kid in keyword_ids:
            if shard.engine.index.document_frequency(kid) == 0:
                # Keyword exists in the graph but not in this cell: only
                # a cross-cell route can cover it.
                return SPAN_KEYWORDS, None
        return LOCAL, shard

    def _localize(self, shard: Shard, query: KORQuery) -> KORQuery:
        """*query* in *shard*'s node ids.  An id the cell does not map
        passes through unchanged: only the whole-graph cell is addressed
        by an ``invalid-endpoints`` plan, and its engine raises the
        canonical QueryError for it."""
        to_local = shard.to_local
        return KORQuery(
            to_local.get(query.source, query.source),
            to_local.get(query.target, query.target),
            query.keywords,
            query.budget_limit,
        )

    def _globalize(self, shard: Shard | None, query: KORQuery, result: KORResult) -> KORResult:
        """Translate a cell-engine result back to global node ids.

        ``shard=None`` is the cross-cell engine, whose ids already are.
        """
        if shard is None:
            return result
        route = result.route
        if route is not None:
            route = Route(
                nodes=tuple(int(shard.to_global[v]) for v in route.nodes),
                objective_score=route.objective_score,
                budget_score=route.budget_score,
            )
        return KORResult(
            query=query,
            algorithm=result.algorithm,
            route=route,
            covers_keywords=result.covers_keywords,
            within_budget=result.within_budget,
            stats=result.stats,
            failure_reason=result.failure_reason,
            degraded=result.degraded,
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
        """Run a batch through routing, the backend and the cache.

        Every slot is probed against the cache, the misses deduplicated
        by canonical key, and each unique miss becomes **one wave** of
        backend work: its cell attempt (when the plan addresses a cell)
        *and*, with more than one cell, its cross-cell attempt,
        concurrently; feasible outcomes merge by objective score, ties
        preferring the cell.  Slot order is submission order on every
        backend; one failing query marks only its own slot and nothing
        about it is cached.

        ``deadline`` (out-of-band, never in cache keys) bounds every
        attempt.  When the cross-cell attempt dies (deadline, injected
        fault, dead worker) but the cell attempt produced a feasible
        route, the cell answer stands in, flagged ``degraded=True`` — it
        is genuinely feasible (a subgraph route is a full-graph route)
        but only the border engine's verdict speaks for global
        optimality.  A wave whose cross attempt *completed* never
        degrades.
        """
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
        if "trace" in params:
            if len(self._shards) > 1:
                # Cell engines search in cell-local node ids and the
                # concurrent cross-cell twin would interleave a second
                # engine's events into the same sink.
                raise QueryError(
                    "'trace' is not supported on a sharded service: trace "
                    "events would carry cell-local node ids; trace via "
                    "engine.run() or a flat QueryService instead"
                )
            if not self._backend.in_process:
                # The worker would fill a pickled *copy* of the caller's
                # trace sink; refusing beats silently returning an empty
                # trace.
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
            crosscell = self._crosscell_handle
            plans = [self._plan(unit.query) for unit in units]
            attempts: list[tuple[str, KORQuery]] = []  # (shard key, query in its ids)
            owners: list[tuple[int, bool]] = []  # (unit position, is cell attempt)
            for position, (unit, (reason, shard)) in enumerate(zip(units, plans)):
                unit.plan = reason
                if shard is not None:
                    attempts.append((shard.key, self._localize(shard, unit.query)))
                    owners.append((position, True))
                if crosscell is not None:
                    attempts.append((crosscell.key, unit.query))
                    owners.append((position, False))
            outcomes = self._scatter(attempts, algorithm, params, deadline)

            cell_outcomes: dict[int, TaskOutcome] = {}
            cross_outcomes: dict[int, TaskOutcome] = {}
            for (position, is_cell), outcome in zip(owners, outcomes):
                (cell_outcomes if is_cell else cross_outcomes)[position] = outcome

            for position, (unit, (_reason, shard)) in enumerate(zip(units, plans)):
                self._merge(unit, shard, cell_outcomes.get(position), cross_outcomes.get(position))
                if unit.error is None and cacheable:
                    self._cache.put(unit.key, unit.result, epoch=epoch)
                for slot in unit.slots:
                    items[slot].result = unit.result
                    items[slot].error = unit.error
                    items[slot].latency_seconds = unit.latency_seconds
                    items[slot].shard = unit.shard
                    items[slot].plan = unit.plan

        report = BatchReport(items=items, wall_seconds=time.perf_counter() - begin)
        for item in report.items:
            if item.ok:
                self._stats.record_query(item.latency_seconds, cached=item.cached)
            else:
                self._stats.record_error()
        self._stats.record_busy(report.wall_seconds)
        return report

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _scatter(
        self,
        attempts: list[tuple[str, KORQuery]],
        algorithm: str,
        params: dict,
        deadline: Deadline | None,
    ) -> list[TaskOutcome]:
        """Dispatch the scatter plan; outcomes return in attempt order.

        :func:`~repro.service.batch.dispatch_waves` groups the attempts
        by shard key, chunks each group by :attr:`wave_size` and
        ships every chunk as one :class:`~repro.service.backends.WaveTask`
        — one submission (and, on a process pool, one pickle+IPC round
        trip) per shard wave.  The containment tiers are that function's:
        a poisoned member errors its own slot, a wave-level failure still
        yields one outcome per member, and a wave whose *submission*
        breaks outright is resubmitted as waves of one.  Every attempt is
        then counted against its shard.
        """
        outcomes = dispatch_waves(
            self._backend,
            attempts,
            algorithm,
            params,
            deadline,
            self.wave_size,
            stats=self._stats,
        )
        for (shard, _query), outcome in zip(attempts, outcomes):
            self._stats.record_shard(shard, errors=0 if outcome.error is None else 1)
        return outcomes

    def _merge(
        self,
        unit,
        shard: Shard | None,
        cell: TaskOutcome | None,
        cross: TaskOutcome | None,
    ) -> None:
        """Pick the winning outcome of a unit's wave.

        Feasible candidates are merged by objective score (ties prefer
        the cell — its result was produced from less state); with no
        feasible candidate the *cross-cell* outcome stands, because only
        the border engine's verdict speaks for the whole graph (when only
        the cell attempt ran, its cell *is* the whole graph or no other
        attempt was made).

        **Graceful degradation**: when the cross-cell attempt *errored*
        but the cell attempt produced a feasible route, that route is
        returned flagged ``degraded=True`` — feasible for sure, optimal
        unproven.  A cross attempt that completed (feasible or not) is
        authoritative, so its waves never degrade.
        """
        # Attempt seconds are summed: that is the compute the query cost,
        # and on the serial (or a saturated) backend also its wall clock.
        # On process lanes the attempts overlap, so batch wall time is
        # tracked separately by BatchReport.wall_seconds.
        unit.latency_seconds = sum(
            outcome.latency_seconds for outcome in (cell, cross) if outcome is not None
        )
        candidates: list[tuple[str, TaskOutcome, Shard | None]] = []
        if cell is not None:
            candidates.append((shard.key, cell, shard))
        if cross is not None:
            candidates.append((self._crosscell_handle.key, cross, None))

        # Scores are the same in either id space, so the candidates are
        # compared as they came back and only the winner is translated.
        # ``min`` keeps the first of equals: the cell candidate.
        feasible = [c for c in candidates if c[1].ok and c[1].result.feasible]
        if feasible:
            key, outcome, winner = min(feasible, key=lambda c: c[1].result.objective_score)
            unit.shard = key
            unit.result = self._globalize(winner, unit.query, outcome.result)
            unit.error = None
            if winner is not None and cross is not None and cross.error is not None:
                unit.result = replace(unit.result, degraded=True)
                self._stats.record_merge("degraded")
            else:
                self._stats.record_merge("cell" if winner is not None else "crosscell")
            return

        # Nothing feasible: the last candidate is always the one whose
        # verdict covers the full graph (cross-cell when it ran).
        key, outcome, winner = candidates[-1]
        unit.shard = key
        if outcome.error is not None:
            unit.error = outcome.error
            unit.result = None
            self._stats.record_merge("error")
        elif outcome.result is not None:
            unit.result = self._globalize(winner, unit.query, outcome.result)
            self._stats.record_merge("infeasible")
        else:  # pragma: no cover - backends always set one of the two
            unit.error = QueryError("backend returned an empty task outcome")
            self._stats.record_merge("error")
