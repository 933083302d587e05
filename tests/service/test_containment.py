"""Failure containment at the service tiers.

Three contracts the front door depends on:

* **Deadlines are out-of-band** — ``deadline=`` reaches the engine but
  never the cache key or the query params, an expired deadline caches
  nothing, and smuggling one through ``params`` is rejected at every
  tier.
* **ServiceClosed is distinct** — closing an ``AsyncQueryService`` fails
  queued-but-undispatched flights with
  :class:`~repro.exceptions.ServiceClosed`, never a bare cancellation,
  and later submissions are refused with the same error.
* **A failed search fails its slot** — a sharded query is one search on
  the cross-cell engine; when it dies the slot carries the error and
  nothing is cached or substituted, as on the flat tier.
"""

from __future__ import annotations

import asyncio
import time

import pytest

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS
from repro.exceptions import DeadlineExceeded, ServiceClosed
from repro.server.schema import (
    decode_route_result,
    encode_route_result,
    validate_route_result,
)
from repro.service import AsyncQueryService, QueryService, ShardedQueryService
from repro.service.faults import FaultPlan, FaultRule, injected

from tests.service.test_differential import fingerprint, random_instance

pytestmark = pytest.mark.timeout(120)


def expired_deadline() -> Deadline:
    return Deadline(time.monotonic() - 1.0, tick_stride=1)


class TestServiceDeadline:
    def test_deadline_is_not_a_query_parameter(self):
        """``QueryService.execute`` binds ``deadline=`` by name, so only
        the front end's ``**params`` can smuggle one in."""
        from repro.service import SerialBackend

        engine, queries = random_instance(0)
        service = QueryService(engine, cache_capacity=8, backend=SerialBackend())

        async def drive():
            front = AsyncQueryService(service)
            with pytest.raises(Exception, match="not a query parameter"):
                await front.submit(queries[0], deadline=Deadline.after(60.0))
            await front.close()

        asyncio.run(drive())
        assert len(service.cache) == 0

    def test_deadline_is_rejected_on_the_wire(self):
        from repro.server.schema import parse_route_query

        with pytest.raises(Exception, match="deadline"):
            parse_route_query(
                {
                    "source": 0,
                    "target": 1,
                    "keywords": [],
                    "budget_limit": 2.0,
                    "params": {"deadline": 50},
                }
            )

    def test_expired_deadline_raises_and_caches_nothing(self):
        engine, queries = random_instance(1)
        service = QueryService(engine, cache_capacity=64)
        with pytest.raises(DeadlineExceeded):
            service.submit(queries[0], deadline=expired_deadline())
        assert len(service.cache) == 0

    def test_deadline_never_enters_the_cache_key(self):
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=64)
        query = queries[0]
        expected = fingerprint(service.submit(query))
        assert len(service.cache) == 1
        # A deadline-carrying repeat is the same cache entry: it hits
        # (no recompute) and plants no second entry.
        bounded = service.submit(query, deadline=Deadline.after(60.0))
        assert fingerprint(bounded) == expected
        assert len(service.cache) == 1
        assert service.snapshot().cache_hits >= 1

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batch_deadline_is_semantically_invisible(self, algorithm):
        engine, queries = random_instance(3)
        expected = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]
        service = QueryService(engine, cache_capacity=0)
        batch = service.run_batch(queries, algorithm=algorithm, deadline=Deadline.after(3600.0))
        assert [fingerprint(r) for r in batch] == expected

    def test_sharded_batch_respects_expired_deadline(self):
        engine, queries = random_instance(4)
        service = ShardedQueryService(engine.graph, num_cells=2, seed=4)
        report = service.execute(queries, deadline=expired_deadline())
        assert not report.ok
        assert all(isinstance(error, DeadlineExceeded) for error in report.errors.values())


class TestServiceClosed:
    def test_close_fails_undispatched_flights_with_service_closed(self):
        engine, queries = random_instance(0)
        service = QueryService(engine, cache_capacity=0)

        async def drive():
            # A wide window guarantees the flight is still queued when
            # close() runs — nothing has been dispatched yet.
            front = AsyncQueryService(service, window_seconds=30.0)
            task = asyncio.create_task(front.submit(queries[0]))
            await asyncio.sleep(0.02)
            await front.close()
            with pytest.raises(ServiceClosed, match="before this query dispatched"):
                await task
            assert not task.cancelled()

        asyncio.run(drive())

    def test_submit_after_close_is_refused(self):
        engine, queries = random_instance(0)

        async def drive():
            front = AsyncQueryService(QueryService(engine, cache_capacity=0))
            await front.close()
            with pytest.raises(ServiceClosed):
                await front.submit(queries[0])

        asyncio.run(drive())


def _cross_killer(service: ShardedQueryService) -> FaultPlan:
    """A plan failing every cross-cell search of *service*, nothing else."""
    return FaultPlan([FaultRule(kind="error_task", shard="crosscell", times=10_000)])


class TestOneSearchFailsAlone:
    def test_a_dead_cross_cell_search_errors_its_slot(self):
        engine, queries = random_instance(1)
        service = ShardedQueryService(engine.graph, num_cells=2, seed=4)
        with injected(_cross_killer(service)) as plan:
            report = service.execute(queries[:1])
        assert plan.fired(), "the cross-cell fault never fired"
        (item,) = report.items
        assert item.result is None and item.error is not None
        assert service.snapshot().merge_wins == {"error": 1}
        assert len(service.cache) == 0
        # The next call searches again and answers as the engine does.
        result = service.submit(queries[0])
        assert fingerprint(result) == fingerprint(service.engine.run(queries[0]))

    def test_single_cell_service_has_no_cross_cell_search(self):
        engine, queries = random_instance(1)
        service = ShardedQueryService(engine.graph, num_cells=1, seed=4)
        with injected(_cross_killer(service)) as plan:
            report = service.execute(queries)
        assert not plan.fired()
        assert report.ok
        expected = [fingerprint(engine.run(query)) for query in queries]
        assert [fingerprint(item.result) for item in report.items] == expected

    def test_route_results_carry_no_degraded_key(self):
        """No answer is a fallback, so none is flagged; a document that
        still carries the key (an older server's) validates as before."""
        engine, queries = random_instance(2)
        service = ShardedQueryService(engine.graph, num_cells=2, seed=4)
        payload = encode_route_result(service.submit(queries[0]))
        assert "degraded" not in payload
        validate_route_result(payload)
        older = {**payload, "degraded": True}
        validate_route_result(older)
        decoded = decode_route_result(older)
        assert fingerprint(decoded) == fingerprint(decode_route_result(payload))
