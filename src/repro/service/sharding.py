"""``ShardedQueryService`` — partition-routed serving over many engines.

The flat :class:`~repro.service.service.QueryService` wraps exactly one
:class:`~repro.core.engine.KOREngine`, whose dense cost tables are the
scale ceiling: ``O(n^2)`` floats per matrix.  This module splits the
graph with :func:`repro.prep.partition.partition_graph` (the paper's
Section-6 sketch) and builds **one engine per cell** — each with its own
(small) tables and inverted index over the cell's induced subgraph —
plus one :class:`~repro.service.crosscell.BorderEngine` that answers
queries over the *full* graph from the very same per-cell tables plus a
``k x k`` border tier.  There is **no flat global engine**: per-service
table memory genuinely shrinks as ``num_cells`` grows, because nothing
holds an ``O(n^2)`` matrix any more.

Routing rule
------------
A query is *cell-local* when the cell owning its **source node** also
owns the target **and** every query keyword has at least one candidate
node inside that cell.  For such queries the service runs **one wave of
two concurrent attempts**: the owning cell's engine (cheap, sees only
the induced subgraph) and the cross-cell :class:`BorderEngine` (sees the
whole graph through assembled border tables).  Feasible outcomes merge
by objective score, ties preferring the cell engine; a cell route is
always genuinely feasible (the subgraph is a subgraph), and the border
assembly is *exact* (see :mod:`repro.service.crosscell`), so the merged
answer carries the same feasibility/objective semantics as a flat
engine.  Queries whose endpoints or keywords span cells — or whose
keywords are missing from the vocabulary entirely — skip the cell
attempt and run on the :class:`BorderEngine` alone.  Compared to the
previous local-then-global *sequential* escalation this one-wave scatter
removes a full round trip from border-heavy traffic: the cross-cell
answer is already computing while the local attempt runs.

With ``num_cells=1`` the single cell *is* the whole graph: the shard
engine answers everything by itself (the cross-cell twin would be a
duplicate and is skipped) and every answer matches the flat service bit
for bit.

Execution
---------
Shard work is described as picklable
:class:`~repro.service.backends.WaveTask` objects — the scatter plan's
attempts grouped by shard key and chunked by the wave size
(:func:`repro.service.batch.dispatch_waves`, the dispatch path the flat
tier uses too) — and executed by any
:class:`~repro.service.backends.ExecutionBackend`: serial, thread pool,
or a process pool whose workers hold their own copies of the shard
engines (finally escaping the GIL for CPU-bound batch fan-out).  The
cross-cell engine ships to workers the same way: its
:class:`~repro.service.backends.EngineHandle` pickles the partitioned
border tables and re-materialises a ``BorderEngine`` worker-side.
Results coming back from a cell engine are translated from cell-local
node ids to global ids before anything downstream sees them.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

import numpy as np

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.core.results import KORResult
from repro.core.route import Route
from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.prep.partition import GraphPartition
from repro.service.backends import (
    DEFAULT_WORKERS,
    EngineHandle,
    ExecutionBackend,
    PartPatch,
    TaskOutcome,
)
from repro.service.base import SyncServiceBase
from repro.service.batch import (
    BatchItem,
    BatchReport,
    batch_keys,
    dedup_units,
    dispatch_waves,
)
from repro.service.crosscell import BorderEngine
from repro.world import CellState, MutableWorld, WorldUpdate

__all__ = ["Shard", "ShardedQueryService"]

_SERVICE_COUNTER = itertools.count()

#: Routing decisions, as reported by :meth:`ShardedQueryService.plan_of`.
LOCAL = "local"
SPAN_ENDPOINTS = "endpoints-span-cells"
SPAN_KEYWORDS = "keywords-span-cells"
MISSING_KEYWORDS = "keywords-missing-from-graph"
INVALID_ENDPOINTS = "invalid-endpoints"

#: Table arrays counted by :meth:`ShardedQueryService.memory_bytes`.
_TABLE_ARRAYS = ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "pred_tau", "pred_sigma")
_BORDER_ARRAYS = (
    "border_os_tau",
    "border_bs_tau",
    "border_os_sigma",
    "border_bs_sigma",
    "border_pred_tau",
    "border_pred_sigma",
)


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


@dataclass
class _Plan:
    """Routing decision for one query."""

    reason: str
    shard: Shard | None = None  # the local candidate, when reason == LOCAL


class ShardedQueryService(SyncServiceBase):
    """Partition-routed, cached, backend-executed serving layer.

    Parameters
    ----------
    graph:
        The full spatial-keyword graph to serve.
    num_cells:
        Partition granularity (default :func:`repro.world.default_num_cells`).
        ``num_cells=1`` degenerates to the flat service exactly.
    seed:
        Partition seed (farthest-point sampling is randomised).
    backend:
        Execution backend for shard waves; default a
        :class:`~repro.service.backends.ThreadBackend` owned (and closed)
        by this service.  A caller-supplied backend is shared, not owned.
    cache_capacity / max_cached_route_nodes:
        Result-cache bounds, as in the flat service.  Cached entries are
        already translated to global node ids.
    wave_size:
        Fixed wave size — how many same-shard attempts of a scatter plan
        share one :class:`~repro.service.backends.WaveTask` (one
        submission and, on a process backend, one pickle+IPC round trip);
        ``1`` is per-attempt dispatch — or ``None`` (default) for
        adaptive sizing via
        :class:`~repro.service.batch.WaveSizeController`.
    """

    def __init__(
        self,
        graph: SpatialKeywordGraph | None = None,
        num_cells: int | None = None,
        seed: int = 0,
        backend: ExecutionBackend | None = None,
        cache_capacity: int = 1024,
        default_workers: int = DEFAULT_WORKERS,
        max_cached_route_nodes: int | None = None,
        world: MutableWorld | None = None,
        wave_size: int | None = None,
    ) -> None:
        if world is None:
            if graph is None:
                raise QueryError("ShardedQueryService needs a graph or a world")
            world = MutableWorld(graph, num_cells=num_cells, seed=seed)
        elif graph is not None and graph is not world.graph:
            raise QueryError(
                "pass either a graph or a world, not both: the world carries "
                "its own graph"
            )
        super().__init__(
            world.graph,
            cache_capacity,
            default_workers,
            backend,
            max_cached_route_nodes,
            wave_size,
        )
        self._world = world
        self._epoch = world.epoch
        self._graph = world.graph
        self._partition: GraphPartition = world.partition

        # The world already materialised every cell's subgraph, tables
        # and index — shard engines assemble from those parts and pay
        # zero extra pre-processing; the cross-cell tier shares the very
        # same cell tables (its only additional state is the border
        # tier, and with one cell not even that).
        self._prefix = f"svc{next(_SERVICE_COUNTER)}/"
        self._shards = tuple(
            self._build_shard(state, handle=None) for state in world.cells
        )
        self._border_engine = BorderEngine(
            self._graph, tables=world.tables, index=world.index
        )
        self._crosscell_handle = EngineHandle(
            self._border_engine, key=f"{self._prefix}crosscell"
        )
        for shard in self._shards:
            self._backend.register(shard.handle)
        self._backend.register(self._crosscell_handle)

    def _build_shard(self, state: CellState, handle: EngineHandle | None) -> Shard:
        """A :class:`Shard` over one world cell's pre-built parts.

        With ``handle`` given (live update), the existing handle is
        reset in place so every registry keyed by it stays valid.
        """
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

    @classmethod
    def from_engine(cls, engine: KOREngine, **kwargs) -> "ShardedQueryService":
        """Shard an existing engine's graph (the engine is not reused)."""
        return cls(engine.graph, **kwargs)

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> SpatialKeywordGraph:
        """The full graph being served."""
        return self._graph

    @property
    def partition(self) -> GraphPartition:
        """The node-to-cell assignment behind the shards."""
        return self._partition

    @property
    def world(self) -> MutableWorld:
        """The mutable world this service serves (graph + tables + index)."""
        return self._world

    @property
    def epoch(self) -> int:
        """Graph epoch in force: the world epoch this service serves.

        Published once an update's parts are installed and the cache is
        invalidated, so whoever reads epoch N is answered from state at
        least that new (the world's own counter moves before the repair).
        """
        return self._epoch

    @property
    def shards(self) -> tuple[Shard, ...]:
        """One :class:`Shard` per cell, in cell order."""
        return self._shards

    @property
    def num_shards(self) -> int:
        """Number of cells the graph was split into."""
        return len(self._shards)

    @property
    def border_engine(self) -> BorderEngine:
        """The cross-cell tier: full-graph answers over border tables."""
        return self._border_engine

    def memory_bytes(self) -> int:
        """Bytes of cost-table state resident in this service.

        Counts every score and predecessor matrix across the cell
        engines and the cross-cell tier exactly once (the border engine
        shares the cell tables, so shared arrays are deduplicated by
        identity).  This is the number the memory-scaling test pins:
        without a flat global engine it must not grow with ``num_cells``.
        """
        seen: set[int] = set()
        total = 0

        def add(array) -> None:
            nonlocal total
            if array is not None and id(array) not in seen:
                seen.add(id(array))
                total += array.nbytes

        for shard in self._shards:
            for name in _TABLE_ARRAYS:
                add(getattr(shard.engine.tables, name))
        assembled = self._border_engine.tables
        for tables in assembled.cell_tables:
            for name in _TABLE_ARRAYS:
                add(getattr(tables, name))
        for name in _BORDER_ARRAYS:
            add(getattr(assembled, name))
        # The assembled tables' bounded row/column LRU caches are derived
        # state but resident nonetheless; count them so nothing hides.
        total += assembled.cache_bytes()
        return total

    # ------------------------------------------------------------------
    # live mutation
    # ------------------------------------------------------------------
    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> int:
        """Apply wire-shaped graph mutations; returns the new epoch.

        The world performs the incremental repair (only the mutated
        cells' tables plus the border tier recompute); this method then
        lands the repaired parts in the serving plane under an **epoch
        fence**: affected shard handles are reset in place (same keys),
        pool workers receive :class:`~repro.service.backends.PartPatch`
        deltas through their ordinary FIFO task queues — so every task
        submitted before the update runs against the old state and every
        task after against the new — and the result cache is invalidated
        exactly once at the end, which also makes the epoch guard drop
        write-backs from queries still finishing on the old graph.
        """
        with self._update_lock:
            update = self._world.apply_ops(ops)
            self._integrate(update)
            return self._epoch

    def _integrate(self, update: WorldUpdate) -> None:
        """Land one applied :class:`~repro.world.WorldUpdate` in the
        serving plane (caller holds the update lock)."""
        world = self._world
        self._graph = world.graph
        # Density may have shifted: re-derive the grown wave size.
        self._wave_controller.retarget(self._graph)

        patches: list[PartPatch] = []
        repaired = set(update.repaired_cells)
        reindexed = {
            cell
            for cell in update.refreshed_cells
            if world.cells[cell].index is not self._shards[cell].engine.index
        }
        shards = list(self._shards)
        for cell in update.refreshed_cells:
            state = world.cells[cell]
            shards[cell] = self._build_shard(state, handle=shards[cell].handle)
            patches.append(
                PartPatch(
                    key=shards[cell].key,
                    # Cell subgraphs are small: shipping the refreshed one
                    # outright is cheaper than delta bookkeeping in local
                    # ids — and sidesteps keyword-id order entirely.
                    graph=state.subgraph,
                    tables=state.tables if cell in repaired else None,
                    index=state.index if cell in reindexed else None,
                )
            )
        self._shards = tuple(shards)

        # The cross-cell twin always refreshes: even a keyword-only
        # change rewrote the full graph it binds queries against.
        self._border_engine = BorderEngine(
            self._graph, tables=world.tables, index=world.index
        )
        self._crosscell_handle.reset(self._border_engine)
        delta = update.delta
        # A delta that interned new keywords cannot be replayed remotely:
        # the worker would intern in merged-delta order, not op order,
        # and disagree with the shipped index on keyword ids.  Ship the
        # full graph in that case (adjacency-sized, not table-sized).
        structural_only = not delta.set_keywords
        patches.append(
            PartPatch(
                key=self._crosscell_handle.key,
                graph=None if structural_only else self._graph,
                graph_delta=delta if structural_only else None,
                cell_tables=tuple(
                    (cell, world.cells[cell].tables) for cell in update.repaired_cells
                ),
                border=(
                    tuple(
                        (name, getattr(world.tables, name)) for name in _BORDER_ARRAYS
                    )
                    if update.border_rebuilt
                    else ()
                ),
                index=world.index if update.index_rebuilt else None,
            )
        )
        self._backend.apply_patches(patches)
        self._cache.invalidate()
        self._epoch = world.epoch

    def close(self) -> None:
        """Retire this service's engines from the backend (idempotent).

        Every shard handle (and the cross-cell one) is unregistered — on
        a shared backend the engines would otherwise stay pinned, and be
        re-shipped to every new pool worker, for the backend's lifetime.
        The backend itself is only closed when this service created it.
        A closed service must not serve further batches.
        """
        for shard in self._shards:
            self._backend.unregister(shard.key)
        self._backend.unregister(self._crosscell_handle.key)
        if self._owns_backend:
            self._backend.close()

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def plan_of(self, query: KORQuery) -> str:
        """The routing decision for *query* (``local`` / ``*-span-cells``
        / ``keywords-missing-from-graph`` / ``invalid-endpoints``),
        without running anything."""
        return self._plan(query).reason

    def _plan(self, query: KORQuery) -> _Plan:
        n = self._graph.num_nodes
        if not (0 <= query.source < n and 0 <= query.target < n):
            # Let the cross-cell engine produce the canonical QueryError.
            return _Plan(reason=INVALID_ENDPOINTS)
        table = self._graph.keyword_table
        keyword_ids = [table.get(word) for word in query.keywords]
        if any(kid is None for kid in keyword_ids):
            # Absent from the whole vocabulary: no engine can cover it.
            # One cross-cell run produces the canonical infeasible answer
            # cheaply (binding fails before any search), and skipping
            # the local attempt avoids a pointless twin task.
            return _Plan(reason=MISSING_KEYWORDS)
        src_cell = int(self._partition.cell_of[query.source])
        if int(self._partition.cell_of[query.target]) != src_cell:
            return _Plan(reason=SPAN_ENDPOINTS)
        shard = self._shards[src_cell]
        for kid in keyword_ids:
            if shard.engine.index.document_frequency(kid) == 0:
                # Keyword exists in the graph but not in this cell: only
                # a cross-cell route can cover it.
                return _Plan(reason=SPAN_KEYWORDS)
        return _Plan(reason=LOCAL, shard=shard)

    def _localize(self, shard: Shard, query: KORQuery) -> KORQuery:
        return KORQuery(
            shard.to_local[query.source],
            shard.to_local[query.target],
            query.keywords,
            query.budget_limit,
        )

    def _globalize(
        self, shard: Shard | None, query: KORQuery, result: KORResult
    ) -> KORResult:
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
    # single queries
    # ------------------------------------------------------------------
    def submit(
        self,
        query: KORQuery,
        algorithm: str = "bucketbound",
        deadline: Deadline | None = None,
        **params,
    ) -> KORResult:
        """Answer a pre-built query (a batch of one, sharing all paths).

        Cacheable submissions are single-flight protected: concurrent
        identical misses fold into one scatter wave, with the waiters
        served the leader's (already cached, already global-id) result.
        ``deadline`` travels out-of-band: it bounds the scatter wave but
        never enters the cache key.
        """
        begin = time.perf_counter()
        cacheable, keys = batch_keys([query], algorithm, dict(params))

        def compute() -> KORResult:
            report = self.execute(
                [query], algorithm=algorithm, deadline=deadline, **params
            )
            item = report.items[0]
            if item.error is not None:
                raise item.error
            return item.result

        if not cacheable:
            return compute()
        # store=False: the leader's execute() already wrote the cache
        # (epoch-guarded) — get_or_compute only adds the coalescing.
        result, how = self._cache.get_or_compute(keys[0], compute, store=False)
        if how != "computed":
            # The leader's stats were recorded inside execute(); hits
            # and coalesced waiters are accounted here instead.
            elapsed = time.perf_counter() - begin
            if how == "coalesced":
                self._stats.record_coalesced()
            self._stats.record_query(elapsed, cached=True)
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
        """Run a batch through routing, the backend and the cache.

        **One wave** of backend work: every unique miss submits its
        cell-local attempt (when the routing plan has one) *and* its
        cross-cell attempt concurrently; feasible outcomes merge by
        objective score, ties preferring the cell engine.  Slot order is
        submission order; one failing query marks only its own slot.

        ``deadline`` bounds every attempt of the wave.  When the
        cross-cell attempt dies (deadline, injected fault, dead worker)
        but the cell-local attempt produced a feasible route, the cell
        answer stands in, flagged ``degraded=True`` — it is genuinely
        feasible (a subgraph route is a full-graph route) but only the
        border engine's verdict speaks for global optimality.  A wave
        whose cross attempt *completed* never degrades.
        """
        if algorithm not in ALGORITHMS:
            raise QueryError(
                f"unknown algorithm {algorithm!r}; expected one of {', '.join(ALGORITHMS)}"
            )
        if "binding" in params or "candidates" in params:
            raise QueryError(
                "'binding'/'candidates' cannot be passed to a sharded batch: "
                "they are per-query state bound to one engine's node ids"
            )
        if "deadline" in params:
            raise QueryError(
                "'deadline' is not a query parameter; pass deadline= to the "
                "service call instead"
            )
        if "trace" in params:
            # Cell engines search in cell-local node ids and the
            # concurrent cross-cell twin would interleave a second
            # engine's events into the same sink — a sharded trace would
            # silently mislead.  (Process backends additionally cannot
            # ship the sink back at all.)
            raise QueryError(
                "'trace' is not supported on a sharded service: trace "
                "events would carry cell-local node ids; trace via "
                "engine.run() or a flat QueryService instead"
            )
        begin = time.perf_counter()
        queries = list(queries)
        items = [BatchItem(index=i, query=query) for i, query in enumerate(queries)]
        cacheable, keys = batch_keys(queries, algorithm, dict(params))
        epoch = self._cache.epoch if cacheable else None
        units = dedup_units(items, keys, self._cache, cacheable, epoch)

        if units:
            effective = workers if workers is not None else self._default_workers
            plans = [self._plan(unit.query) for unit in units]
            attempts: list[tuple[str, KORQuery]] = []  # (shard key, query in its ids)
            owners: list[tuple[int, bool]] = []  # (unit position, is cell attempt)
            for position, (unit, plan) in enumerate(zip(units, plans)):
                unit.plan = plan.reason
                if plan.shard is not None:
                    attempts.append(
                        (plan.shard.key, self._localize(plan.shard, unit.query))
                    )
                    owners.append((position, True))
                    if self.num_shards == 1:
                        # The single cell is the whole graph — the
                        # cross-cell twin would recompute the same answer.
                        continue
                attempts.append((self._crosscell_handle.key, unit.query))
                owners.append((position, False))
            outcomes = self._scatter(attempts, algorithm, params, deadline, workers=effective)

            cell_outcomes: dict[int, TaskOutcome] = {}
            cross_outcomes: dict[int, TaskOutcome] = {}
            for (position, is_cell), outcome in zip(owners, outcomes):
                (cell_outcomes if is_cell else cross_outcomes)[position] = outcome

            for position, (unit, plan) in enumerate(zip(units, plans)):
                self._merge(
                    unit,
                    plan,
                    cell_outcomes.get(position),
                    cross_outcomes.get(position),
                )

            for unit in units:
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
        workers: int | None,
    ) -> list[TaskOutcome]:
        """Dispatch the scatter plan; outcomes return in attempt order.

        :func:`~repro.service.batch.dispatch_waves` groups the plan's
        attempts by shard key (cell engines and the cross-cell assembly
        alike), chunks each group by the adaptive wave size and ships
        every chunk as one :class:`~repro.service.backends.WaveTask` —
        one submission (and, on a process pool, one pickle+IPC round
        trip) per shard wave; a shard with a single attempt gets a wave
        of one.  The containment tiers are that function's: a poisoned
        member errors its own slot, a wave-level failure still yields
        one outcome per member, and a wave whose *submission* breaks
        outright is resubmitted as waves of one.  Every attempt is then
        counted against its shard.
        """
        outcomes = dispatch_waves(
            self._backend,
            attempts,
            algorithm,
            params,
            deadline,
            self._wave_controller.wave_size,
            workers=workers,
            stats=self._stats,
        )
        for (shard, _query), outcome in zip(attempts, outcomes):
            self._stats.record_shard(shard, errors=0 if outcome.error is None else 1)
        return outcomes

    def _merge(
        self,
        unit,
        plan: _Plan,
        cell: TaskOutcome | None,
        cross: TaskOutcome | None,
    ) -> None:
        """Pick the winning outcome of a unit's scatter wave.

        Feasible candidates are merged by objective score (ties prefer
        the cell shard — its result was produced from less state); with
        no feasible candidate the *cross-cell* outcome stands, because
        only the border engine's verdict speaks for the whole graph
        (when only the cell attempt ran, its cell *is* the whole graph).

        **Graceful degradation**: when the cross-cell attempt *errored*
        (deadline, fault, dead worker) but the cell attempt produced a
        feasible route, that route is returned flagged
        ``degraded=True`` — feasible for sure, optimal unproven.  A
        cross attempt that completed (feasible or not) is authoritative,
        so its waves never degrade.
        """
        # Attempt seconds are summed: that is the compute the query cost,
        # and on a serial (or saturated) backend also its wall clock.  On
        # a concurrent backend the attempts overlap, so batch wall time
        # is tracked separately by BatchReport.wall_seconds.
        unit.latency_seconds = sum(
            outcome.latency_seconds for outcome in (cell, cross) if outcome is not None
        )
        candidates: list[tuple[str, TaskOutcome, Shard | None]] = []
        if cell is not None:
            assert plan.shard is not None
            candidates.append((plan.shard.key, cell, plan.shard))
        if cross is not None:
            candidates.append((self._crosscell_handle.key, cross, None))

        # Scores are the same in either id space, so the candidates are
        # compared as they came back and only the winner is translated.
        # ``min`` keeps the first of equals: the cell candidate.
        feasible = [c for c in candidates if c[1].ok and c[1].result.feasible]
        if feasible:
            key, outcome, shard = min(feasible, key=lambda c: c[1].result.objective_score)
            unit.shard = key
            unit.result = self._globalize(shard, unit.query, outcome.result)
            unit.error = None
            cross_died = cross is not None and cross.error is not None
            if cross_died and key != self._crosscell_handle.key:
                unit.result = replace(unit.result, degraded=True)
                self._stats.record_merge("degraded")
            else:
                self._stats.record_merge(
                    "crosscell" if key == self._crosscell_handle.key else "cell"
                )
            return

        # Nothing feasible: the last candidate is always the one whose
        # verdict covers the full graph (cross-cell when it ran).
        key, outcome, shard = candidates[-1]
        unit.shard = key
        if outcome.error is not None:
            unit.error = outcome.error
            unit.result = None
            self._stats.record_merge("error")
        elif outcome.result is not None:
            unit.result = self._globalize(shard, unit.query, outcome.result)
            self._stats.record_merge("infeasible")
        else:  # pragma: no cover - backends always set one of the two
            unit.error = QueryError("backend returned an empty task outcome")
            self._stats.record_merge("error")
