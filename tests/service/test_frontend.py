"""AsyncQueryService: differential, coalescing, micro-batching, timeouts.

The front-end adds *scheduling*, never semantics: everything awaited
through it must be byte-identical to the sync service it wraps, on every
backend, for every algorithm.  Tests drive real event loops via
``asyncio.run`` (no pytest-asyncio dependency), so they also run under
the CI backend matrix like every other file in this directory.
"""

from __future__ import annotations

import asyncio
import threading
import time

import pytest

from repro.core.engine import ALGORITHMS
from repro.exceptions import QueryError
from repro.service import AsyncQueryService, QueryService, ShardedQueryService

from tests.service.test_backends import run_on_every_backend
from tests.service.test_concurrency import result_bytes
from tests.service.test_differential import fingerprint, random_instance


class SlowEngine:
    """Engine proxy that counts (and can delay) ``run`` calls."""

    def __init__(self, engine, delay_seconds: float = 0.0):
        self._engine = engine
        self._delay = delay_seconds
        self._lock = threading.Lock()
        self.runs = 0

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run(self, *args, **kwargs):
        with self._lock:
            self.runs += 1
        if self._delay:
            time.sleep(self._delay)
        return self._engine.run(*args, **kwargs)


class TestAsyncDifferential:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", (0, 3))
    def test_flat_async_matches_sync(self, seed, algorithm, service_backend):
        """Awaited answers == sync batch answers, all six algorithms."""
        engine, queries = random_instance(seed)
        sync_service = QueryService(engine, cache_capacity=256, backend=service_backend)
        expected = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]

        async def drive():
            async with AsyncQueryService(sync_service) as front:
                return await front.run_batch(queries, algorithm=algorithm)

        got = asyncio.run(drive())
        assert [fingerprint(r) for r in got] == expected

    @pytest.mark.parametrize("num_cells", (1, 2))
    def test_sharded_async_matches_sync(self, num_cells, service_backend):
        engine, queries = random_instance(1)
        cells = min(num_cells, engine.graph.num_nodes)
        sharded = ShardedQueryService(
            engine.graph, num_cells=cells, seed=4, backend=service_backend
        )
        expected = result_bytes(sharded.run_batch(queries, algorithm="osscaling"))
        sharded.invalidate_cache()

        async def drive():
            async with AsyncQueryService(sharded) as front:
                return await front.run_batch(queries, algorithm="osscaling")

        assert result_bytes(asyncio.run(drive())) == expected

    def test_async_byte_identical_across_all_backends(self):
        """The full acceptance triangle: async == sync == every backend."""
        engine, queries = random_instance(5)

        def run(backend):
            service = QueryService(engine, cache_capacity=256, backend=backend)

            async def drive():
                async with AsyncQueryService(service) as front:
                    return result_bytes(await front.run_batch(queries, algorithm="bucketbound"))

            return asyncio.run(drive())

        outputs = run_on_every_backend(run)
        sync = result_bytes(
            QueryService(engine, cache_capacity=256).run_batch(queries, algorithm="bucketbound")
        )
        assert outputs["serial"] == outputs["process"] == sync


class TestCoalescing:
    def test_n_awaiters_one_execution(self):
        """Acceptance: N concurrent awaiters -> exactly one engine run."""
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.01)
        service = QueryService(slow, cache_capacity=256)
        n = 8

        async def drive():
            async with AsyncQueryService(service) as front:
                results = await asyncio.gather(
                    *(front.submit(queries[0], algorithm="bucketbound") for _ in range(n))
                )
                return front.snapshot(), front.scheduling_stats(), results

        snapshot, scheduling, results = asyncio.run(drive())
        assert slow.runs == 1
        assert snapshot.coalesced == n - 1
        assert scheduling["flights"] == 1
        assert scheduling["waves"] == 1
        assert all(r is results[0] for r in results)

    def test_distinct_queries_share_one_wave(self):
        """Micro-batching: concurrent distinct awaiters -> one execute."""
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)
        calls = []
        original = service.execute

        def counting_execute(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        service.execute = counting_execute

        async def drive():
            async with AsyncQueryService(service) as front:
                return await asyncio.gather(
                    *(front.submit(q, algorithm="bucketbound") for q in queries[:4])
                )

        results = asyncio.run(drive())
        assert len(calls) == 1
        assert [fingerprint(r) for r in results] == [
            fingerprint(engine.run(q, algorithm="bucketbound")) for q in queries[:4]
        ]

    def test_different_params_ride_different_waves(self):
        """One wave per (algorithm, params): semantics stay per-request."""
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)

        async def drive():
            async with AsyncQueryService(service) as front:
                a, b = await asyncio.gather(
                    front.submit(queries[0], algorithm="osscaling", epsilon=0.5),
                    front.submit(queries[0], algorithm="osscaling", epsilon=0.1),
                )
                return front.scheduling_stats(), a, b

        scheduling, a, b = asyncio.run(drive())
        assert scheduling["waves"] == 2
        assert fingerprint(a) == fingerprint(
            engine.run(queries[0], algorithm="osscaling", epsilon=0.5)
        )
        assert fingerprint(b) == fingerprint(
            engine.run(queries[0], algorithm="osscaling", epsilon=0.1)
        )

    def test_sequential_submits_reuse_sync_cache(self):
        """After a flight lands, repeats are sync-cache hits, not reruns."""
        engine, queries = random_instance(0)
        slow = SlowEngine(engine)
        service = QueryService(slow, cache_capacity=256)

        async def drive():
            async with AsyncQueryService(service) as front:
                first = await front.submit(queries[0], algorithm="bucketbound")
                second = await front.submit(queries[0], algorithm="bucketbound")
                return first, second

        first, second = asyncio.run(drive())
        assert slow.runs == 1
        assert second is first  # the cached object itself


class TestTimeoutAndCancellation:
    def test_timeout_before_dispatch_cancels_the_flight(self):
        """A flight all of whose awaiters left never touches the engine."""
        engine, queries = random_instance(0)
        slow = SlowEngine(engine)
        service = QueryService(slow, cache_capacity=256)

        async def drive():
            # A 5 s window means nothing dispatches during this test by
            # itself; the timed-out awaiter must abandon the flight.
            front = AsyncQueryService(service, window_seconds=5.0)
            with pytest.raises(asyncio.TimeoutError):
                await front.submit(queries[0], algorithm="bucketbound", timeout=0.02)
            stats = front.scheduling_stats()
            snapshot = front.snapshot()
            await front.close()
            return stats, snapshot

        scheduling, snapshot = asyncio.run(drive())
        assert slow.runs == 0
        assert scheduling["abandoned_flights"] == 1
        assert scheduling["waves"] == 0
        assert snapshot.timeouts == 1
        assert len(service.cache) == 0

    def test_timeout_after_dispatch_stops_the_wave_and_stays_clean(self):
        """Acceptance: an expired wave stops computing; nothing poisons
        the cache or stats, and later callers recompute correctly."""
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.15)
        service = QueryService(slow, cache_capacity=256)

        async def drive():
            async with AsyncQueryService(service) as front:
                with pytest.raises(asyncio.TimeoutError):
                    await front.submit(queries[0], algorithm="bucketbound", timeout=0.02)
                # close() drains the wave; it inherited the lone
                # awaiter's deadline and died with DeadlineExceeded, so
                # nothing about it may have entered the cache.
            return front.snapshot()

        snapshot = asyncio.run(drive())
        assert snapshot.timeouts == 1
        assert snapshot.errors == 0
        assert len(service.cache) == 0
        assert slow.runs == 1
        # A later caller recomputes from scratch and gets the right
        # answer — the abandoned wave left no trace.
        expected = fingerprint(engine.run(queries[0], algorithm="bucketbound"))
        assert fingerprint(service.submit(queries[0], algorithm="bucketbound")) == expected
        assert slow.runs == 2

    def test_one_timeout_among_live_awaiters_does_not_sink_them(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.1)
        service = QueryService(slow, cache_capacity=256)

        async def drive():
            async with AsyncQueryService(service) as front:
                outcomes = await asyncio.gather(
                    front.submit(queries[0], algorithm="bucketbound", timeout=0.01),
                    front.submit(queries[0], algorithm="bucketbound"),
                    return_exceptions=True,
                )
                return outcomes

        timed_out, served = asyncio.run(drive())
        assert isinstance(timed_out, asyncio.TimeoutError)
        assert fingerprint(served) == fingerprint(engine.run(queries[0], algorithm="bucketbound"))
        assert slow.runs == 1

    def test_cancellation_before_dispatch(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine)
        service = QueryService(slow, cache_capacity=256)

        async def drive():
            front = AsyncQueryService(service, window_seconds=5.0)
            task = asyncio.ensure_future(front.submit(queries[0], algorithm="bucketbound"))
            await asyncio.sleep(0.01)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            stats = front.scheduling_stats()
            await front.close()
            return stats

        scheduling = asyncio.run(drive())
        assert slow.runs == 0
        assert scheduling["abandoned_flights"] == 1


class TestErrorsAndLifecycle:
    def test_failing_query_raises_only_its_own_awaiter(self):
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)
        from repro.core.query import KORQuery

        bad = KORQuery(engine.graph.num_nodes + 7, 0, (), 4.0)

        async def drive():
            async with AsyncQueryService(service) as front:
                return await asyncio.gather(
                    front.submit(queries[0], algorithm="bucketbound"),
                    front.submit(bad, algorithm="bucketbound"),
                    front.submit(queries[1], algorithm="bucketbound"),
                    return_exceptions=True,
                )

        good_a, error, good_b = asyncio.run(drive())
        assert isinstance(error, QueryError)
        assert fingerprint(good_a) == fingerprint(engine.run(queries[0], algorithm="bucketbound"))
        assert fingerprint(good_b) == fingerprint(engine.run(queries[1], algorithm="bucketbound"))

    def test_closed_frontend_refuses_submissions(self):
        engine, queries = random_instance(0)
        service = QueryService(engine, cache_capacity=16)

        async def drive():
            front = AsyncQueryService(service)
            await front.close()
            await front.close()  # idempotent
            with pytest.raises(QueryError, match="closed"):
                await front.submit(queries[0], algorithm="bucketbound")

        asyncio.run(drive())

    def test_uncacheable_params_serve_solo_without_coalescing(self):
        """Trace submissions work, fill the sink, and never coalesce."""
        from repro.core.results import SearchTrace

        engine, queries = random_instance(0)
        service = QueryService(engine, cache_capacity=16)

        async def drive():
            async with AsyncQueryService(service) as front:
                traces = [SearchTrace(), SearchTrace()]
                results = await asyncio.gather(
                    front.submit(queries[0], algorithm="osscaling", trace=traces[0]),
                    front.submit(queries[0], algorithm="osscaling", trace=traces[1]),
                )
                return front.scheduling_stats(), traces, results

        scheduling, traces, results = asyncio.run(drive())
        # Identical queries, but caller-owned sinks: two solo flights.
        assert scheduling["flights"] == 2
        assert scheduling["waves"] == 2
        assert traces[0].events and traces[1].events
        assert fingerprint(results[0]) == fingerprint(results[1])

    def test_close_service_flag_closes_owned_sharded_service(self):
        engine, _queries = random_instance(0)
        sharded = ShardedQueryService(engine.graph, num_cells=1)

        async def drive():
            front = AsyncQueryService(sharded, close_service=True)
            await front.close()

        asyncio.run(drive())
        assert sharded.backend.shard_keys == ()


class TestStaleTimerRegression:
    """The max-batch overflow flush must disarm an armed window timer.

    Regression guard for the `_arm_flush`/`_flush` edge: the first
    submission arms a window timer, the ``max_batch``-th triggers an
    immediate flush — the timer must be cancelled by that flush, never
    left to fire a second (empty, or worse: refilled) wave.
    """

    def test_overflow_flush_disarms_the_window_timer(self):
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)
        executes = []
        original = service.execute

        def counting_execute(batch, **kwargs):
            executes.append(len(batch))
            return original(batch, **kwargs)

        service.execute = counting_execute

        async def drive():
            front = AsyncQueryService(service, window_seconds=0.03, max_batch=2)
            tasks = [
                asyncio.ensure_future(front.submit(q, algorithm="bucketbound"))
                for q in queries[:2]
            ]
            await asyncio.sleep(0)  # both enlist; the second overflows
            # The overflow flush ran synchronously and disarmed the
            # window timer the first submission had armed.
            assert front._flush_handle is None  # noqa: SLF001 - regression introspection
            assert front.scheduling_stats()["waves"] == 1
            # Let the original timer's instant pass with a refilled
            # queue behind it: a stale timer would dispatch this flight
            # in a second premature wave.
            third = asyncio.ensure_future(front.submit(queries[2], algorithm="bucketbound"))
            results = await asyncio.gather(*tasks, third)
            stats = front.scheduling_stats()
            await front.close()
            return results, stats

        results, scheduling = asyncio.run(drive())
        # Exactly two waves: the overflow pair and the third flight's own.
        assert scheduling["waves"] == 2
        assert executes == [2, 1]
        expected = [fingerprint(engine.run(q, algorithm="bucketbound")) for q in queries[:3]]
        assert [fingerprint(r) for r in results] == expected

    def test_timer_flush_after_overflow_flush_is_harmless(self):
        """Sleeping past the window after an overflow must add no waves."""
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)

        async def drive():
            front = AsyncQueryService(service, window_seconds=0.02, max_batch=2)
            await asyncio.gather(*(front.submit(q, algorithm="bucketbound") for q in queries[:2]))
            waves_after_overflow = front.scheduling_stats()["waves"]
            await asyncio.sleep(0.06)  # well past the armed window instant
            waves_after_wait = front.scheduling_stats()["waves"]
            await front.close()
            return waves_after_overflow, waves_after_wait

        waves_after_overflow, waves_after_wait = asyncio.run(drive())
        assert waves_after_overflow == 1
        assert waves_after_wait == 1  # the cancelled timer never refired


class TestSloAccounting:
    def test_slo_violations_surface_in_frontend_snapshot(self):
        engine, queries = random_instance(0)
        slow = SlowEngine(engine, delay_seconds=0.03)
        service = QueryService(slow, cache_capacity=0)

        async def drive():
            async with AsyncQueryService(service, slo_seconds=0.001) as front:
                await front.submit(queries[0], algorithm="bucketbound")
                return front.snapshot()

        snapshot = asyncio.run(drive())
        assert snapshot.slo_seconds == 0.001
        assert snapshot.slo_violations == 1
        assert snapshot.slo_violation_rate == pytest.approx(1.0)
