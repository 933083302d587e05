"""Batch regressions: caller-count invariance, in-batch dedup and
failure isolation.

Concurrency is *invisible*: a batch handed over in one call and the
same queries submitted one by one from many threads at once (as the
async front end's executor threads call the service) yield identical
result lists.  Duplicate slots of one batch share one computation, and
one poisoned query marks only its own slot — the cache and every other
slot are untouched.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.query import KORQuery
from repro.datasets.queries import QuerySetConfig, generate_query_set
from repro.exceptions import QueryError
from repro.service import BatchError, QueryService, ShardedQueryService
from repro.service.batch import DEFAULT_WAVE_SIZE

from tests.service.test_differential import fingerprint, random_instance


def result_bytes(results) -> bytes:
    """A byte string capturing everything observable about a result list."""
    return repr([fingerprint(r) for r in results]).encode()


def submit_from_callers(service, queries, algorithm: str, callers: int) -> list:
    """Each query submitted on its own, from *callers* threads at once."""
    with ThreadPoolExecutor(max_workers=callers) as pool:
        return list(pool.map(lambda query: service.submit(query, algorithm=algorithm), queries))


class TestCallerCountInvariance:
    @pytest.mark.parametrize("seed", (0, 1, 2))
    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound", "greedy2"))
    def test_one_vs_many_callers_byte_identical(self, seed, algorithm):
        engine, queries = random_instance(seed)
        solo = QueryService(engine, cache_capacity=256)
        fleet = QueryService(engine, cache_capacity=256)
        batch = solo.run_batch(queries, algorithm=algorithm)
        concurrent = submit_from_callers(fleet, queries, algorithm, callers=8)
        assert result_bytes(batch) == result_bytes(concurrent)

    @pytest.mark.parametrize("num_cells", (1, 2))
    def test_sharded_one_vs_many_callers_byte_identical(self, num_cells):
        engine, queries = random_instance(1)
        cells = min(num_cells, engine.graph.num_nodes)
        with ShardedQueryService(engine.graph, num_cells=cells, seed=4) as solo:
            batch = solo.run_batch(queries, algorithm="osscaling")
        with ShardedQueryService(engine.graph, num_cells=cells, seed=4) as fleet:
            concurrent = submit_from_callers(fleet, queries, "osscaling", callers=8)
        assert result_bytes(batch) == result_bytes(concurrent)

    def test_caller_counts_on_flickr_battery(self, small_flickr_engine):
        config = QuerySetConfig(num_queries=5, num_keywords=2, budget_limit=4.0, seed=3)
        queries = generate_query_set(
            small_flickr_engine.graph,
            small_flickr_engine.index,
            config,
            tables=small_flickr_engine.tables,
        )
        batches = [
            submit_from_callers(
                QueryService(small_flickr_engine), queries, "bucketbound", callers=callers
            )
            for callers in (1, 2, 6)
        ]
        assert result_bytes(batches[0]) == result_bytes(batches[1]) == result_bytes(batches[2])


class TestInBatchDedup:
    @pytest.mark.parametrize("wave_size", (1, DEFAULT_WAVE_SIZE))
    def test_duplicate_slots_share_one_computation(self, wave_size, monkeypatch):
        """Dedup happens before the misses are cut into waves: it holds
        for per-query dispatch as for the default."""
        monkeypatch.setattr("repro.service.batch.DEFAULT_WAVE_SIZE", wave_size)
        engine, queries = random_instance(4)
        service = QueryService(engine, cache_capacity=256)
        batch = [queries[0], queries[1], queries[0], queries[0]]
        report = service.execute(batch, algorithm="bucketbound")
        assert report.ok
        results = [item.result for item in report.items]
        assert results[0] is results[2] is results[3]  # one shared computation
        assert fingerprint(results[1]) == fingerprint(
            engine.run(queries[1], algorithm="bucketbound")
        )


class TestFailureIsolation:
    def failing_batch(self, engine, queries):
        bad = KORQuery(engine.graph.num_nodes + 7, 0, (), 4.0)  # source out of range
        return [queries[0], bad, queries[1]], 1

    def test_failure_reported_without_poisoning_others(self):
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)
        batch, bad_slot = self.failing_batch(engine, queries)

        report = service.execute(batch, algorithm="bucketbound")
        assert not report.ok
        assert set(report.errors) == {bad_slot}
        assert isinstance(report.errors[bad_slot], QueryError)
        for item in report.items:
            if item.index != bad_slot:
                assert item.ok
                assert fingerprint(item.result) == fingerprint(
                    engine.run(item.query, algorithm="bucketbound")
                )

    def test_failure_never_enters_the_cache(self):
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)
        batch, bad_slot = self.failing_batch(engine, queries)

        service.execute(batch, algorithm="bucketbound")
        assert len(service.cache) == len(batch) - 1  # only the good slots

        # A retry recomputes the bad slot (it was never cached) and serves
        # the good ones from cache.
        before = service.cache.stats.insertions
        report = service.execute(batch, algorithm="bucketbound")
        assert set(report.errors) == {bad_slot}
        assert service.cache.stats.insertions == before  # pure hits, no growth
        assert report.items[0].cached and report.items[2].cached

    def test_run_batch_raises_batch_error_with_full_report(self):
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)
        batch, bad_slot = self.failing_batch(engine, queries)

        with pytest.raises(BatchError) as excinfo:
            service.run_batch(batch, algorithm="bucketbound")
        report = excinfo.value.report
        assert set(report.errors) == {bad_slot}
        assert sum(item.ok for item in report.items) == len(batch) - 1

    def test_errors_count_in_service_stats(self):
        engine, queries = random_instance(2)
        service = QueryService(engine, cache_capacity=256)
        batch, _bad_slot = self.failing_batch(engine, queries)
        service.execute(batch, algorithm="bucketbound")
        snapshot = service.snapshot()
        assert snapshot.errors == 1
        assert snapshot.queries == len(batch) - 1
