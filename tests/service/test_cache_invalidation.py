"""Regression tests: a rebuilt engine must never serve stale routes.

PR 1's cache keys describe only (query, algorithm, params) — nothing
about the graph that answered them.  These tests pin the fix: the cache
carries an epoch, ``invalidate()`` bumps it, a service's ``apply_ops``
and ``invalidate_cache`` both invalidate, and writes that captured a
superseded epoch are dropped instead of poisoning the new one.
"""

from __future__ import annotations

import pytest

from repro.core.engine import KOREngine
from repro.core.query import KORQuery
from repro.graph.builder import GraphBuilder
from repro.service import QueryService, ResultCache, ShardedQueryService

from tests.ops import recost
from tests.service.test_cache_properties import make_result


def line_graph(objective: float):
    """0 -> 1 -> 2, keyword 'pub' on node 1, tunable objective weights."""
    builder = GraphBuilder()
    builder.add_node()
    builder.add_node(keywords=["pub"])
    builder.add_node()
    builder.add_edge(0, 1, objective, 1.0)
    builder.add_edge(1, 2, objective, 1.0)
    return builder.build()


QUERY = KORQuery(0, 2, ("pub",), 8.0)

#: Re-costs ``line_graph(1.0)`` into ``line_graph(5.0)``.
RECOST_TO_5 = [recost(0, 1, objective=5.0), recost(1, 2, objective=5.0)]


class TestResultCacheEpoch:
    def test_invalidate_empties_and_bumps_epoch(self):
        cache = ResultCache(8)
        cache.put("k", make_result(3))
        first_epoch = cache.epoch
        assert len(cache) == 1
        new_epoch = cache.invalidate()
        assert new_epoch == first_epoch + 1 == cache.epoch
        assert len(cache) == 0
        assert cache.stats.invalidations == 1

    def test_stale_write_is_dropped(self):
        """A computation that started before invalidate() cannot land."""
        cache = ResultCache(8)
        epoch = cache.epoch  # captured before the "long computation"
        cache.invalidate()  # an update landed mid-flight
        cache.put("k", make_result(3), epoch=epoch)
        assert "k" not in cache
        assert cache.stats.stale_writes == 1

    def test_stale_probe_is_a_miss(self):
        cache = ResultCache(8)
        cache.put("k", make_result(3))
        stale_epoch = cache.epoch - 1
        assert cache.get("k", epoch=stale_epoch) is None
        assert cache.get("k", epoch=cache.epoch) is not None

    def test_current_epoch_writes_land_normally(self):
        cache = ResultCache(8)
        cache.put("k", make_result(3), epoch=cache.epoch)
        assert "k" in cache


class TestServiceInvalidation:
    def test_an_update_stops_serving_stale_routes(self):
        """The original bug: same query, re-costed graph, cached answer."""
        service = QueryService(KOREngine(line_graph(1.0)), cache_capacity=64)
        before = service.submit(QUERY, algorithm="bucketbound")
        assert before.objective_score == pytest.approx(2.0)
        # Same query again: served from cache (same object).
        assert service.submit(QUERY, algorithm="bucketbound") is before

        service.apply_ops(RECOST_TO_5)
        after = service.submit(QUERY, algorithm="bucketbound")
        assert after is not before
        assert after.objective_score == pytest.approx(10.0)

    def test_invalidate_cache_forces_recompute(self):
        service = QueryService(KOREngine(line_graph(1.0)), cache_capacity=64)
        first = service.submit(QUERY, algorithm="bucketbound")
        service.invalidate_cache()
        second = service.submit(QUERY, algorithm="bucketbound")
        assert second is not first  # recomputed, not replayed
        assert second.objective_score == pytest.approx(first.objective_score)

    def test_batch_path_respects_invalidation(self):
        service = QueryService(KOREngine(line_graph(1.0)), cache_capacity=64)
        service.run_batch([QUERY], algorithm="bucketbound")
        service.apply_ops(RECOST_TO_5)
        results = service.run_batch([QUERY], algorithm="bucketbound")
        assert results[0].objective_score == pytest.approx(10.0)
        assert service.cache.stats.invalidations == 1

    def test_sharded_service_invalidate_cache(self, service_backend):
        service = ShardedQueryService(
            line_graph(1.0), num_cells=1, backend=service_backend, cache_capacity=64
        )
        first = service.submit(QUERY, algorithm="bucketbound")
        assert service.submit(QUERY, algorithm="bucketbound") is first
        service.invalidate_cache()
        recomputed = service.submit(QUERY, algorithm="bucketbound")
        assert recomputed is not first
        assert recomputed.objective_score == pytest.approx(first.objective_score)
