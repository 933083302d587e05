"""Cache hits answered on the event loop, ahead of the flight path.

``AsyncQueryService.submit`` asks the wrapped service for a cached
answer before it builds anything request-shaped; these tests pin what
that shortcut must not change (answers, cache and service accounting,
LRU recency, the epoch fence, the solo and closed paths) and the one
thing it must: a hit no longer waits for a worker thread.  Both sync
tiers inherit the probe from ``SyncServiceBase``, so every test runs on
the flat and the sharded service.
"""

from __future__ import annotations

import asyncio
import random
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.engine import KOREngine
from repro.core.results import SearchTrace
from repro.exceptions import QueryError, ServiceClosed
from repro.service import AsyncQueryService, QueryService, ShardedQueryService
from repro.service.backends import SerialBackend
from repro.service.cache import canonical_cache_key

from tests.service.test_differential import fingerprint, random_instance

pytestmark = pytest.mark.timeout(120)

TIERS = ("flat", "sharded")
ALGORITHMS = ("bucketbound", "osscaling", "greedy")


class GatedBackend(SerialBackend):
    """Serial backend whose waves park on ``gate`` while it is cleared:
    the slow engine of both tiers (the sharded one builds its own
    engines, so the delay sits one level up, where its waves run)."""

    def __init__(self) -> None:
        super().__init__()
        self.gate = threading.Event()
        self.gate.set()
        self.entered = threading.Event()

    def _submit_call(self, fn, *args):
        self.entered.set()
        assert self.gate.wait(30.0), "the test never released the wave"
        return super()._submit_call(fn, *args)


def build(tier: str, graph, **kwargs):
    if tier == "flat":
        return QueryService(KOREngine(graph), **kwargs)
    return ShardedQueryService(graph, num_cells=min(2, graph.num_nodes), seed=4, **kwargs)


def jobs(seed: int) -> tuple[object, list[tuple]]:
    """A graph plus distinct ``(query, algorithm)`` jobs (distinct
    canonical keys, so each is its own cache entry)."""
    engine, queries = random_instance(seed)
    unique = {
        canonical_cache_key(query, algorithm): (query, algorithm)
        for algorithm in ALGORITHMS
        for query in queries
    }
    return engine.graph, list(unique.values())


def first_edge(graph) -> tuple[int, int]:
    return next(
        (u, v) for u in range(graph.num_nodes) for v, _o, _b in graph.out_edges(u)
    )


@pytest.mark.parametrize("tier", TIERS)
def test_a_hit_returns_while_the_only_worker_is_held_by_a_wave(tier):
    """On the parent the hit queued behind the blocked search: its
    probe ran on the one executor thread the wave was holding."""
    graph, ((hot, hot_algorithm), (cold, cold_algorithm), *_rest) = jobs(0)
    backend = GatedBackend()
    service = build(tier, graph, backend=backend)

    async def drive():
        with ThreadPoolExecutor(max_workers=1) as executor:
            async with AsyncQueryService(service, executor=executor) as front:
                warm = await front.submit(hot, algorithm=hot_algorithm)
                backend.entered.clear()
                backend.gate.clear()
                try:
                    blocked = asyncio.ensure_future(
                        front.submit(cold, algorithm=cold_algorithm)
                    )
                    while not backend.entered.is_set():
                        await asyncio.sleep(0.002)
                    hit = await front.submit(hot, algorithm=hot_algorithm, timeout=5.0)
                    still_blocked = not blocked.done()
                finally:
                    backend.gate.set()
                await blocked
                return warm, hit, still_blocked, front.scheduling_stats()

    try:
        warm, hit, still_blocked, scheduling = asyncio.run(drive())
    finally:
        service.close()
    assert hit is warm  # the cached object itself, as execute hands it out
    assert still_blocked
    assert scheduling["loop_hits"] == 1
    assert scheduling["flights"] == scheduling["waves"] == 2


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("seed", (0, 3))
def test_hot_cold_stream_books_what_one_by_one_execute_books(tier, seed):
    """Differential: the loop probe + flight path against plain
    ``execute([q])`` calls — same answers, same cache counters (a miss is
    counted once, by ``execute``), same service-tier query accounting.
    Capacity is below the working set, so equal hit counts also mean
    loop hits refresh recency exactly as ``get`` does."""
    graph, work = jobs(seed)
    rng = random.Random(seed)
    hot = work[:3]
    stream = [rng.choice(hot) if rng.random() < 0.6 else rng.choice(work) for _ in range(80)]
    through_front = build(tier, graph, cache_capacity=5)
    one_by_one = build(tier, graph, cache_capacity=5)

    async def drive():
        async with AsyncQueryService(through_front) as front:
            results = [await front.submit(q, algorithm=a) for q, a in stream]
            return results, front.scheduling_stats(), front.snapshot()

    try:
        got, scheduling, front_snapshot = asyncio.run(drive())
        expected = [one_by_one.execute([q], algorithm=a).results()[0] for q, a in stream]
        assert [fingerprint(r) for r in got] == [fingerprint(r) for r in expected]
        ours, theirs = through_front.cache.stats, one_by_one.cache.stats
        assert (ours.hits, ours.misses, ours.insertions, ours.evictions) == (
            theirs.hits,
            theirs.misses,
            theirs.insertions,
            theirs.evictions,
        )
        assert ours.hits > 0 and ours.evictions > 0  # the stream exercised both
        ours, theirs = through_front.snapshot(), one_by_one.snapshot()
        assert (ours.queries, ours.cache_hits, ours.cache_misses, ours.errors) == (
            theirs.queries,
            theirs.cache_hits,
            theirs.cache_misses,
            theirs.errors,
        )
    finally:
        through_front.close()
        one_by_one.close()
    # Sequential awaits never coalesce: every request is a hit or a flight.
    assert scheduling["loop_hits"] == through_front.cache.stats.hits
    assert scheduling["flights"] == through_front.cache.stats.misses
    assert front_snapshot.queries == len(stream)
    assert front_snapshot.cache_hits == scheduling["loop_hits"]


@pytest.mark.parametrize("tier", TIERS)
def test_requests_are_loop_hits_plus_flights_plus_coalesced(tier):
    """The scheduling identity for a stream without refusals: every
    request is answered from the cache, starts a flight, or joins one."""
    graph, work = jobs(1)
    service = build(tier, graph)

    async def drive():
        async with AsyncQueryService(service) as front:
            for _ in range(3):
                # Each burst repeats every job: first sightings fly, their
                # duplicates coalesce, later bursts hit on the loop.
                await asyncio.gather(
                    *(front.submit(q, algorithm=a) for q, a in work + work[:4])
                )
            return front.scheduling_stats(), front.snapshot()

    try:
        scheduling, snapshot = asyncio.run(drive())
    finally:
        service.close()
    assert scheduling["requests"] == 3 * (len(work) + 4)
    assert scheduling["flights"] == len(work)
    assert snapshot.coalesced == 4
    assert scheduling["loop_hits"] == 2 * (len(work) + 4)
    assert scheduling["requests"] == (
        scheduling["loop_hits"] + scheduling["flights"] + snapshot.coalesced
    )
    assert scheduling["abandoned_flights"] == 0


@pytest.mark.parametrize("tier", TIERS)
def test_an_update_turns_a_hit_key_into_a_miss_at_the_new_epoch(tier):
    graph, ((query, algorithm), *_rest) = jobs(0)
    service = build(tier, graph)
    u, v = first_edge(graph)
    op = {"op": "update_edge_cost", "u": u, "v": v, "objective": 9.0, "budget": 9.0}

    async def drive():
        async with AsyncQueryService(service) as front:
            await front.submit(query, algorithm=algorithm)
            await front.submit(query, algorithm=algorithm)
            before = front.scheduling_stats()
            epoch = await front.apply_update([op])
            recomputed = await front.submit(query, algorithm=algorithm)
            hit_again = await front.submit(query, algorithm=algorithm)
            return before, epoch, recomputed, hit_again, front.scheduling_stats()

    try:
        before, epoch, recomputed, hit_again, after = asyncio.run(drive())
        mutated = service.world.graph if tier == "sharded" else service.engine.graph
        oracle = build(tier, mutated)
        try:
            expected = oracle.execute([query], algorithm=algorithm).results()[0]
        finally:
            oracle.close()
    finally:
        service.close()
    assert (before["loop_hits"], before["flights"]) == (1, 1)
    assert epoch == service.epoch == 1
    assert (after["loop_hits"], after["flights"]) == (2, 2)
    assert fingerprint(recomputed) == fingerprint(expected)
    assert hit_again is recomputed
    assert service.cache.stats.invalidations == 1


@pytest.mark.parametrize("tier", TIERS)
def test_the_new_epoch_is_published_after_the_cache_is_invalidated(tier):
    """Whoever reads epoch N must not be handed an entry of epoch N-1:
    the loop probe reads the epoch and the cache without a common lock,
    so the service invalidates first and publishes second."""
    graph, _work = jobs(0)
    service = build(tier, graph)
    u, v = first_edge(graph)
    seen = []
    invalidate = service.cache.invalidate

    def spy() -> int:
        seen.append(service.epoch)
        return invalidate()

    service.cache.invalidate = spy
    try:
        assert service.update_edge_cost(u, v, objective=9.0) == 1
    finally:
        service.close()
    assert seen == [0]
    assert service.epoch == 1


@pytest.mark.parametrize("tier", TIERS)
def test_loop_hits_refresh_lru_recency(tier):
    """The hot key outlives ``capacity`` cold insertions because the
    loop hit in between moved it to the fresh end."""
    capacity = 3
    graph, (hot, *cold) = jobs(2)
    assert len(cold) >= 4
    service = build(tier, graph, cache_capacity=capacity)

    async def drive():
        async with AsyncQueryService(service) as front:
            for query, algorithm in (hot, cold[0], cold[1], hot, cold[2], cold[3], hot):
                await front.submit(query, algorithm=algorithm)
            return front.scheduling_stats()

    try:
        scheduling = asyncio.run(drive())
    finally:
        service.close()
    assert scheduling["loop_hits"] == 2
    assert scheduling["flights"] == 5
    assert service.cache.stats.evictions == 2
    assert canonical_cache_key(*hot) in service.cache


@pytest.mark.parametrize("tier", TIERS)
def test_keyless_requests_never_probe_and_still_fly_solo(tier):
    """``trace=`` (uncacheable) and unhashable params have no canonical
    key: even with the plain query cached they ride solo flights."""
    graph, _work = jobs(0)
    query = random_instance(0)[1][0]
    service = build(tier, graph)

    async def drive():
        async with AsyncQueryService(service) as front:
            plain = await front.submit(query, algorithm="osscaling")
            traces = [SearchTrace(), SearchTrace()]
            traced = await asyncio.gather(
                *(front.submit(query, algorithm="osscaling", trace=t) for t in traces),
                return_exceptions=True,
            )
            with pytest.raises(TypeError):
                await front.submit(query, algorithm="osscaling", epsilon=[0.5])
            return plain, traces, traced, front.scheduling_stats(), front.snapshot()

    try:
        plain, traces, traced, scheduling, snapshot = asyncio.run(drive())
    finally:
        service.close()
    assert scheduling["loop_hits"] == 0
    assert scheduling["flights"] == scheduling["waves"] == 4
    assert snapshot.coalesced == 0
    assert service.cache.stats.hits == 0
    if tier == "flat":
        assert all(trace.events for trace in traces)
        assert [fingerprint(r) for r in traced] == [fingerprint(plain)] * 2
    else:  # the sharded tier refuses traces, flight by flight
        assert all(isinstance(error, QueryError) for error in traced)


@pytest.mark.parametrize("tier", TIERS)
def test_a_closed_front_end_refuses_a_cached_key(tier):
    graph, ((query, algorithm), *_rest) = jobs(0)
    service = build(tier, graph)

    async def drive():
        front = AsyncQueryService(service)
        await front.submit(query, algorithm=algorithm)
        await front.close()
        with pytest.raises(ServiceClosed):
            await front.submit(query, algorithm=algorithm)
        return front.scheduling_stats()

    try:
        scheduling = asyncio.run(drive())
    finally:
        service.close()
    assert scheduling["requests"] == 1
    assert scheduling["loop_hits"] == 0
    assert service.cache.stats.hits == 0


def test_a_service_without_the_probe_keeps_the_flight_path():
    """Duck typing: a stub with only ``execute`` is still served."""
    engine, queries = random_instance(0)
    inner = QueryService(engine)

    class ExecuteOnly:
        execute = staticmethod(inner.execute)

    async def drive():
        async with AsyncQueryService(ExecuteOnly()) as front:
            first = await front.submit(queries[0])
            second = await front.submit(queries[0])
            return first, second, front.scheduling_stats()

    try:
        first, second, scheduling = asyncio.run(drive())
    finally:
        inner.close()
    assert second is first  # the wrapped execute's own cache answered
    assert scheduling["loop_hits"] == 0
    assert scheduling["flights"] == 2
