"""repro.service — batched, cached, sharded, multi-backend KOR serving.

The algorithms in :mod:`repro.core` answer one query at a time and
recompute every per-keyword candidate set from scratch.  Real workloads
(the Flickr query logs modelled in the paper, Section 4.1) are streams
with heavy keyword and whole-query repetition, so a serving layer can
amortise most of that work.  This package adds one:

``QueryService``
    The flat front door.  Wraps a :class:`repro.core.engine.KOREngine`
    with

    * a **canonicalizing LRU result cache** — keyword order and
      duplicates never change the cache key, so ``("pub", "mall")`` and
      ``("mall", "pub", "pub")`` hit the same entry; capacity, an
      optional total-route-size budget, hit/miss counters and
      epoch-based invalidation are exposed (:mod:`repro.service.cache`);
    * a **batch executor** — a list of :class:`repro.core.query.KORQuery`
      objects is deduplicated against the cache and against itself, and
      the remaining unique queries are chunked into *waves* that fan out
      over a pluggable execution backend; each wave resolves the *union*
      of its members' keywords through the index exactly once
      (``index.candidate_sets``).  Results come back in submission order
      regardless of worker count, and one failing query is reported
      per-slot without poisoning the cache or its neighbours
      (:mod:`repro.service.batch`);
    * **serving metrics** — p50/p95 latency, cache hit rate, throughput
      and per-shard task counters via
      :class:`repro.service.stats.ServiceStats`.

``ShardedQueryService``
    The partition-routed tier (:mod:`repro.service.sharding`): the graph
    is split into cells (:func:`repro.prep.partition.partition_graph`),
    each cell gets its own engine (tables + index over the induced
    subgraph), and cross-cell answers are assembled *exactly* by a
    :class:`~repro.service.crosscell.BorderEngine` over the cells' own
    tables plus a border-to-border tier — no flat global engine, so
    table memory shrinks as the cell count grows.  Cell-local queries
    run their cell attempt and the cross-cell assembly in one
    concurrent wave, merged by objective score; see the module
    docstrings for the full contract.

``AsyncQueryService``
    The request-shaped asyncio tier (:mod:`repro.service.frontend`):
    ``await service.submit(query)`` coalesces duplicate in-flight
    requests (single-flight on the cache's canonical key), aggregates
    concurrent awaiters into one micro-batched ``execute`` wave, and
    supports per-request timeouts whose cancellation propagates down to
    undispatched shard tasks.  Wraps either sync service; results are
    byte-identical to the sync path.

``ExecutionBackend``
    Where compute actually runs (:mod:`repro.service.backends`).  The
    one unit of work is the :class:`~repro.service.backends.WaveTask`
    (a single query is a wave of one) and the primitive is futures-based
    — ``submit_wave(task) -> Future[list[TaskOutcome]]`` with bounded
    in-flight admission (``max_in_flight``).  ``SerialBackend``
    (reference/debugging), ``ThreadBackend`` (persistent GIL-sharing
    pool) and ``ProcessBackend`` (**warm-pinned**
    single-process lanes over picklable
    :class:`~repro.service.backends.EngineHandle` shard state: repeat
    traffic for a shard sticks to the worker that already materialised
    its engine, with a per-worker engine LRU, saturation spill and
    dead-worker retry — the backend that scales CPU-bound fan-out past
    the GIL).

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
  result lists on serial, thread and process backends, any worker count.
* **Isolated failures** — a query that raises marks only its own slot;
  nothing about it enters the cache, on any backend.
* **No stale serving** — rebuilding/replacing an engine bumps the cache
  epoch: old entries vanish and in-flight writes against the old engine
  are dropped.
"""

from repro.service.backends import (
    EngineHandle,
    ExecutionBackend,
    PartPatch,
    ProcessBackend,
    RemoteTaskError,
    SerialBackend,
    TaskOutcome,
    ThreadBackend,
    WaveTask,
    backend_from_name,
    run_wave_on_engine,
)
from repro.service.batch import BatchError, BatchItem, BatchReport
from repro.service.cache import CacheStats, ResultCache, canonical_cache_key
from repro.service.config import ServiceConfig, build_service
from repro.service.crosscell import BorderEngine
from repro.service.frontend import AsyncQueryService
from repro.service.service import QueryService
from repro.service.sharding import Shard, ShardedQueryService
from repro.service.stats import ServiceStats, StatsSnapshot

__all__ = [
    "AsyncQueryService",
    "BatchError",
    "BatchItem",
    "BatchReport",
    "BorderEngine",
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
    "Shard",
    "ShardedQueryService",
    "StatsSnapshot",
    "TaskOutcome",
    "ThreadBackend",
    "WaveTask",
    "backend_from_name",
    "build_service",
    "canonical_cache_key",
    "run_wave_on_engine",
]
