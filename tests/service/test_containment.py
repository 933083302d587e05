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
* **Degradation is explicit** — a sharded wave whose cross-cell attempt
  died returns the feasible cell answer flagged ``degraded=True``; a
  completed cross attempt is authoritative and never degrades; the flag
  survives the wire schema round-trip without disturbing v1 payloads.
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
        from repro.service.batch import execute_batch
        from repro.service.cache import ResultCache

        from repro.service import SerialBackend

        engine, queries = random_instance(0)
        backend = SerialBackend()
        with pytest.raises(Exception, match="not a query parameter"):
            execute_batch(
                ResultCache(8),
                queries[:1],
                params={"deadline": Deadline.after(60.0)},
                backend=backend,
                handle=backend.register_engine(engine),
            )

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
        batch = service.run_batch(
            queries, algorithm=algorithm, deadline=Deadline.after(3600.0)
        )
        assert [fingerprint(r) for r in batch] == expected

    def test_sharded_batch_respects_expired_deadline(self):
        engine, queries = random_instance(4)
        service = ShardedQueryService(engine.graph, num_cells=2, seed=4)
        report = service.execute(queries, deadline=expired_deadline())
        assert not report.ok
        assert all(
            isinstance(error, DeadlineExceeded) for error in report.errors.values()
        )


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
    """A plan failing every cross-cell attempt of *service*, nothing else."""
    return FaultPlan(
        [FaultRule(kind="error_task", shard="crosscell", times=10_000)]
    )


def _cell_local_instance():
    """A graph + query whose cell-local attempt is always feasible.

    Every node carries the keyword and all edges cost 1, so whatever the
    partition looks like, a query between two nodes of the same cell is
    answerable inside that cell.
    """
    from repro.core.query import KORQuery
    from repro.graph.builder import GraphBuilder

    builder = GraphBuilder()
    for _ in range(6):
        builder.add_node(keywords=["pub"])
    for u in range(6):
        for v in range(6):
            if u != v:
                builder.add_edge(u, v, 1.0, 1.0)
    graph = builder.build()
    service = ShardedQueryService(graph, num_cells=2, seed=4)
    shard = next(s for s in service.shards if len(s.to_global) >= 2)
    query = KORQuery(
        int(shard.to_global[0]), int(shard.to_global[1]), ("pub",), 10.0
    )
    return service, query


class TestGracefulDegradation:
    def test_cross_cell_death_degrades_instead_of_failing(self):
        service, query = _cell_local_instance()

        with injected(_cross_killer(service)) as plan:
            report = service.execute([query])
        assert plan.fired(), "the cross-cell fault never fired"

        assert report.ok
        result = report.items[0].result
        # A degraded answer is genuinely feasible — a subgraph route is
        # a full-graph route — it just lost its global-optimality
        # certificate.
        assert result.degraded
        assert result.feasible
        assert result.covers_keywords
        assert result.within_budget
        assert service.snapshot().merge_wins.get("degraded", 0) == 1

    def test_cross_cell_death_without_cell_answer_is_an_error(self):
        service, query = _cell_local_instance()
        with injected(
            FaultPlan([FaultRule(kind="error_task", times=10_000)])
        ):
            report = service.execute([query])
        assert not report.ok
        assert not any(
            item.result is not None and item.result.degraded for item in report.items
        )

    def test_completed_cross_attempt_never_degrades(self):
        engine, queries = random_instance(1)
        service = ShardedQueryService(engine.graph, num_cells=2, seed=4)
        results = service.run_batch(queries)
        assert all(not result.degraded for result in results)
        assert "degraded" not in service.snapshot().merge_wins

    def test_single_cell_service_never_degrades(self):
        engine, queries = random_instance(1)
        service = ShardedQueryService(engine.graph, num_cells=1, seed=4)
        with injected(_cross_killer(service)):
            report = service.execute(queries)
        assert report.ok
        assert all(not item.result.degraded for item in report.items)


class TestDegradedOnTheWire:
    def test_normal_payloads_are_unchanged(self):
        engine, queries = random_instance(2)
        result = engine.run(queries[0])
        payload = encode_route_result(result)
        assert "degraded" not in payload
        validate_route_result(payload)
        assert decode_route_result(payload).degraded is False

    def test_degraded_flag_round_trips(self):
        from dataclasses import replace

        engine, queries = random_instance(2)
        result = replace(engine.run(queries[0]), degraded=True)
        payload = encode_route_result(result)
        assert payload["degraded"] is True
        validate_route_result(payload)
        assert decode_route_result(payload).degraded is True

    def test_degraded_must_be_boolean(self):
        engine, queries = random_instance(2)
        payload = encode_route_result(engine.run(queries[0]))
        payload["degraded"] = "yes"
        with pytest.raises(Exception, match="boolean"):
            validate_route_result(payload)
