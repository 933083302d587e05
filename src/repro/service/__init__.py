"""repro.service — batched, cached, sharded, multi-backend KOR serving.

The algorithms in :mod:`repro.core` answer one query at a time and
recompute every per-keyword candidate set from scratch.  Real workloads
(the Flickr query logs modelled in the paper, Section 4.1) are streams
with heavy keyword and whole-query repetition, so a serving layer can
amortise most of that work.  This package adds one:

``QueryService`` / ``ShardedQueryService``
    Two names over one sync service (:mod:`repro.service.base`), which
    serves a :class:`repro.world.MutableWorld` through one engine:

    * a **canonicalizing LRU result cache** — keyword order and
      duplicates never change the cache key; capacity, hit/miss
      counters and epoch-based invalidation are exposed
      (:mod:`repro.service.cache`);
    * a **batch path** — a list of :class:`repro.core.query.KORQuery`
      objects is deduplicated against the cache and against itself, and
      each unique miss is one search on the service's engine, shipped
      in *waves* over a pluggable execution backend; each wave
      resolves the union of its members' keywords through the index once.
      Results come back in submission order, and one failing query is
      reported per-slot without poisoning the cache or its neighbours
      (:mod:`repro.service.batch`);
    * **live updates**, all through ``apply_ops(ops)`` (a batch of
      ``kor.graph_update.v1`` ops) — the world repairs the rows a change
      can move; the service ships each replaced part (graph, tables,
      index) to pool workers and bumps the epoch;
    * **serving metrics** via :class:`repro.service.stats.ServiceStats`.

    ``QueryService(engine)`` is the flat tier: the one-cell world of its
    engine, the cell being the whole graph.  ``ShardedQueryService``
    splits the graph into cells
    (:func:`repro.prep.partition.partition_graph`), each with its own
    tables, and serves one :class:`~repro.core.engine.KOREngine` over
    :class:`~repro.prep.partition.PartitionedCostTables` — the cells'
    tables plus a border-to-border tier, assembled *exactly* — with no
    flat global tables, so table memory shrinks as the cell count grows
    (see :mod:`repro.service.sharding`).

``AsyncQueryService``
    The request-shaped asyncio tier (:mod:`repro.service.frontend`):
    ``await service.submit(query)`` coalesces duplicate in-flight
    requests (the stack's one single-flight table, keyed by the cache's
    canonical key), aggregates
    concurrent awaiters into one micro-batched ``execute`` wave, and
    supports per-request timeouts whose cancellation propagates down to
    undispatched shard tasks.  Wraps either sync service; results are
    byte-identical to the sync path.

``ExecutionBackend``
    Where compute actually runs (:mod:`repro.service.backends`).  The
    one unit of work is the :class:`~repro.service.backends.WaveTask`
    (a single query is a wave of one) and the primitive is futures-based
    — ``submit_wave(task) -> Future[list[TaskOutcome]]``, with the
    submission depth counted.  ``SerialBackend`` (the
    in-process backend and the default: waves run inline on the live
    engines) and ``ProcessBackend`` (single-process lanes over
    picklable :class:`~repro.service.backends.EngineHandle` shard state:
    each wave goes to the least-loaded lane, with dead-worker retry and
    a per-lane circuit breaker — the backend that scales CPU-bound
    fan-out past the GIL).

Quickstart::

    from repro import KORQuery, figure_1_graph
    from repro.service import ProcessBackend, ShardedQueryService

    service = ShardedQueryService(figure_1_graph(), num_cells=2,
                                  backend=ProcessBackend(workers=4))
    batch = [KORQuery(0, 7, ("t1", "t2"), 8.0) for _ in range(100)]
    results = service.run_batch(batch, algorithm="bucketbound")
    print(service.stats.snapshot().describe())   # p50/p95, hit rate, shards

Guarantees (backed by ``tests/service/``):

* **Differential** — flat batch results are semantically identical to a
  sequential ``engine.run`` loop for every algorithm in ``ALGORITHMS``;
  sharded results are feasibility-equivalent to the flat engine for the
  complete algorithms (border assembly is exact) and never score better
  than the exact optimum, and ``num_cells=1`` reproduces the flat
  engine exactly.
* **Backend-deterministic** — the same batch yields byte-identical
  result lists on the serial and process backends, any lane count.
* **Isolated failures** — a query that raises marks only its own slot;
  nothing about it enters the cache, on any backend.
* **No stale serving** — every applied update bumps the cache epoch:
  old entries vanish and in-flight writes against the old graph are
  dropped.
"""

from repro.service.backends import (
    EngineHandle,
    ExecutionBackend,
    PartPatch,
    ProcessBackend,
    RemoteTaskError,
    SerialBackend,
    TaskOutcome,
    WaveTask,
    backend_from_name,
    run_wave_on_engine,
)
from repro.service.batch import BatchError, BatchItem, BatchReport
from repro.service.cache import CacheStats, ResultCache, canonical_cache_key
from repro.service.config import ServiceConfig, build_service
from repro.service.frontend import AsyncQueryService
from repro.service.service import QueryService
from repro.service.sharding import ShardedQueryService
from repro.service.stats import ServiceStats, StatsSnapshot

__all__ = [
    "AsyncQueryService",
    "BatchError",
    "BatchItem",
    "BatchReport",
    "CacheStats",
    "EngineHandle",
    "ExecutionBackend",
    "PartPatch",
    "ProcessBackend",
    "QueryService",
    "RemoteTaskError",
    "ResultCache",
    "SerialBackend",
    "ServiceConfig",
    "ServiceStats",
    "ShardedQueryService",
    "StatsSnapshot",
    "TaskOutcome",
    "WaveTask",
    "backend_from_name",
    "build_service",
    "canonical_cache_key",
    "run_wave_on_engine",
]
