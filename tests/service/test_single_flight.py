"""Single-flight: the async front end's flight table is the one coalescer.

Concurrent identical requests join one flight
(:class:`~repro.service.frontend.AsyncQueryService`); the sync services
run every call they are given.  These tests pin the flight table's
hygiene — a failed flight leaves nothing behind, distinct keys never
share a flight, a sharded service scatters a coalesced request once,
and a flight computing against a retired epoch collects no new
awaiters — plus the cache's epoch guard every computation relies on: a
result computed against a retired epoch is handed to its caller but
never stored.
"""

from __future__ import annotations

import asyncio
from functools import partial

import pytest

from repro.core.engine import KOREngine
from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.service import AsyncQueryService, QueryService, ResultCache, ShardedQueryService

from tests.service.test_backend_lifecycle import GatedEngine
from tests.service.test_differential import fingerprint, random_instance
from tests.service.test_frontend import SlowEngine


class TestStaleWriteBack:
    def test_epoch_guard_drops_stale_write_but_serves_result(self):
        cache = ResultCache(capacity=16)
        epoch = cache.epoch  # captured as the batch path captures it

        def compute():
            cache.invalidate()  # an update landed mid-computation
            result = "stale-but-correct-for-the-caller"
            cache.put("key", result, epoch=epoch)  # as the batch path stores
            return result

        assert compute() == "stale-but-correct-for-the-caller"
        assert "key" not in cache  # the epoch guard dropped the write
        assert cache.stats.stale_writes == 1


class TestFlightTable:
    def test_failed_flight_fails_every_awaiter_and_caches_nothing(self):
        engine, queries = random_instance(0)
        bad = KORQuery(engine.graph.num_nodes + 7, 0, (), 4.0)
        service = QueryService(engine, cache_capacity=64)

        async def drive():
            async with AsyncQueryService(service) as front:
                outcomes = await asyncio.gather(
                    *(front.submit(bad, algorithm="bucketbound") for _ in range(3)),
                    return_exceptions=True,
                )
                return front.snapshot(), outcomes

        snapshot, outcomes = asyncio.run(drive())
        assert all(isinstance(outcome, QueryError) for outcome in outcomes)
        assert snapshot.coalesced == 2
        assert snapshot.errors == 3
        assert len(service.cache) == 0

    def test_failed_flight_leaves_no_entry_behind(self):
        """A later identical request starts a flight of its own instead
        of joining (or waiting on) the dead one, and a follow-up good
        request is answered as the engine answers it."""
        engine, queries = random_instance(0)
        bad = KORQuery(engine.graph.num_nodes + 7, 0, (), 4.0)
        service = QueryService(engine, cache_capacity=64)

        async def drive():
            async with AsyncQueryService(service) as front:
                for _ in range(2):
                    with pytest.raises(QueryError):
                        await front.submit(bad, algorithm="bucketbound")
                    assert front._pending == {}  # noqa: SLF001 - regression introspection
                good = await front.submit(queries[0], algorithm="bucketbound")
                return front.scheduling_stats(), front.snapshot(), good

        scheduling, snapshot, good = asyncio.run(drive())
        assert scheduling["flights"] == 3
        assert snapshot.coalesced == 0
        assert fingerprint(good) == fingerprint(engine.run(queries[0], algorithm="bucketbound"))

    def test_cached_request_never_enters_the_flight_table(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine)
        service = QueryService(slow, cache_capacity=64)
        first = service.submit(queries[0], algorithm="bucketbound")

        async def drive():
            async with AsyncQueryService(service) as front:
                again = await front.submit(queries[0], algorithm="bucketbound")
                return front.scheduling_stats(), again

        scheduling, again = asyncio.run(drive())
        assert again is first
        assert (scheduling["loop_hits"], scheduling["flights"]) == (1, 0)
        assert slow.runs == 1

    def test_distinct_keys_each_get_one_flight(self):
        """Every distinct key computes exactly once; only its own
        duplicates join its flight."""
        engine, queries = random_instance(2)
        slow = SlowEngine(engine)
        service = QueryService(slow, cache_capacity=64)
        distinct = list(dict.fromkeys(queries[:4]))

        async def drive():
            async with AsyncQueryService(service) as front:
                results = await asyncio.gather(
                    *(front.submit(query, algorithm="bucketbound") for query in distinct * 2)
                )
                return front.scheduling_stats(), front.snapshot(), results

        scheduling, snapshot, results = asyncio.run(drive())
        n = len(distinct)
        assert slow.runs == n
        assert scheduling["flights"] == n
        assert snapshot.coalesced == n
        assert all(results[i] is results[i + n] for i in range(n))
        assert [fingerprint(r) for r in results[:n]] == [
            fingerprint(engine.run(query, algorithm="bucketbound")) for query in distinct
        ]

    def test_sharded_identical_awaiters_share_one_scatter(self):
        engine, queries = random_instance(1)
        service = ShardedQueryService(
            engine.graph, num_cells=min(2, engine.graph.num_nodes), seed=4
        )
        n = 6

        async def drive():
            async with AsyncQueryService(service) as front:
                results = await asyncio.gather(
                    *(front.submit(queries[0], algorithm="bucketbound") for _ in range(n))
                )
                return front.snapshot(), results

        try:
            snapshot, results = asyncio.run(drive())
            assert all(result is results[0] for result in results)
            assert snapshot.coalesced == n - 1
            sync = service.snapshot()
            # One scatter: at most one task per attempt kind, one miss.
            assert sum(sync.shard_tasks.values()) <= 2
            assert (sync.cache_misses, sync.cache_hits) == (1, 0)
            assert fingerprint(results[0]) == fingerprint(
                service.submit(queries[0], algorithm="bucketbound")
            )
        finally:
            service.close()


class TestEpochScopedFlights:
    """A flight dispatched before a graph update still answers its own
    awaiters, but a request arriving after the new epoch is published
    starts a flight of its own: joining the old one would hand it an
    answer from the retired state."""

    def test_a_flight_from_a_retired_epoch_collects_no_new_awaiters(self):
        engine, queries = random_instance(0)
        gated = GatedEngine(engine)
        service = QueryService(gated, cache_capacity=64)
        query = queries[0]

        async def drive():
            loop = asyncio.get_running_loop()
            async with AsyncQueryService(service) as front:
                old = asyncio.ensure_future(front.submit(query, algorithm="bucketbound"))
                assert await loop.run_in_executor(
                    None, partial(gated.running.acquire, timeout=10.0)
                )
                u, (v, _objective, _budget) = next(
                    (node, edge)
                    for node in range(engine.graph.num_nodes)
                    for edge in engine.graph.out_edges(node)
                )
                await front.apply_update(
                    [{"op": "update_edge_cost", "u": u, "v": v, "objective": 0.25}]
                )
                try:
                    fresh = await asyncio.wait_for(
                        front.submit(query, algorithm="bucketbound"), 5.0
                    )
                finally:
                    gated.gate.set()
                stale = await old
                again = await front.submit(query, algorithm="bucketbound")
                return front.scheduling_stats(), front.snapshot(), stale, fresh, again

        scheduling, snapshot, stale, fresh, again = asyncio.run(drive())
        assert scheduling["flights"] == 2
        assert snapshot.coalesced == 0
        # The new flight never touched the retired (gated) engine.
        assert not gated.running.acquire(timeout=0.0)
        oracle = KOREngine(service.engine.graph)
        assert fingerprint(fresh) == fingerprint(oracle.run(query, algorithm="bucketbound"))
        assert fingerprint(stale) == fingerprint(engine.run(query, algorithm="bucketbound"))
        # The retired flight's write-back was epoch-dropped: the cache
        # serves the fresh answer.
        assert again is fresh
        assert service.cache.stats.stale_writes == 1
