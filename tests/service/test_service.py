"""Unit tests of the serving layer's parts: cache, stats, service API."""

from __future__ import annotations

import pytest

from repro.core.query import KORQuery
from repro.core.results import SearchTrace
from repro.exceptions import QueryError
from repro.service import QueryService, ResultCache, canonical_cache_key
from repro.service.stats import ServiceStats, percentile


def key_for(source=0, target=1, words=("pub",), delta=4.0, algorithm="bucketbound"):
    return canonical_cache_key(KORQuery(source, target, words, delta), algorithm)


class TestResultCache:
    def test_lru_evicts_least_recently_used(self):
        cache = ResultCache(capacity=2)
        k1, k2, k3 = key_for(0, 1), key_for(0, 2), key_for(0, 3)
        cache.put(k1, "r1")
        cache.put(k2, "r2")
        cache.get(k1)  # refresh k1: k2 becomes the LRU entry
        cache.put(k3, "r3")
        assert k1 in cache and k3 in cache and k2 not in cache
        assert cache.stats.evictions == 1

    def test_zero_capacity_disables_storage(self):
        cache = ResultCache(capacity=0)
        cache.put(key_for(), "r")
        assert len(cache) == 0
        assert cache.get(key_for()) is None
        assert cache.stats.misses == 1

    def test_hit_rate(self):
        cache = ResultCache(capacity=4)
        assert cache.stats.hit_rate == 0.0
        cache.put(key_for(), "r")
        cache.get(key_for())
        cache.get(key_for(0, 9))
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == 0.5

    def test_negative_capacity_rejected(self):
        with pytest.raises(QueryError):
            ResultCache(capacity=-1)


class TestPercentile:
    def test_empty_and_single(self):
        assert percentile([], 50.0) == 0.0
        assert percentile([3.0], 95.0) == 3.0

    def test_interpolation_matches_numpy(self):
        import numpy as np

        samples = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        for q in (0.0, 25.0, 50.0, 95.0, 100.0):
            assert percentile(samples, q) == pytest.approx(np.percentile(samples, q))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 120.0)


class TestServiceStats:
    def test_snapshot_percentiles_equal_percentile_on_the_same_samples(self):
        """snapshot() sorts its window once; the three percentiles must
        still be exactly what percentile() gives for each."""
        import random

        rng = random.Random(7)
        samples = [rng.expovariate(100.0) for _ in range(500)]
        stats = ServiceStats()
        for sample in samples:
            stats.record_query(sample, cached=False)
        snapshot = stats.snapshot()
        assert snapshot.p50_latency_seconds == percentile(samples, 50.0)
        assert snapshot.p95_latency_seconds == percentile(samples, 95.0)
        assert snapshot.p99_latency_seconds == percentile(samples, 99.0)
        assert snapshot.mean_latency_seconds == sum(samples) / len(samples)
        assert ServiceStats().snapshot().p99_latency_seconds == 0.0

    def test_shed_counter_reads_without_a_snapshot(self):
        stats = ServiceStats()
        assert stats.shed == 0
        stats.record_shed()
        stats.record_shed()
        assert stats.shed == 2 == stats.snapshot().shed

    def test_snapshot_aggregates(self):
        stats = ServiceStats()
        for latency in (0.010, 0.020, 0.030, 0.040):
            stats.record_query(latency, cached=False)
        stats.record_query(0.000_1, cached=True)
        stats.record_error()
        stats.record_busy(0.2)
        snapshot = stats.snapshot()
        assert snapshot.queries == 5
        assert snapshot.errors == 1
        assert snapshot.cache_hits == 1 and snapshot.cache_misses == 4
        assert snapshot.hit_rate == pytest.approx(0.2)
        assert snapshot.throughput_qps == pytest.approx(25.0)
        assert snapshot.p50_latency_seconds == pytest.approx(0.020)
        assert "p50" in snapshot.describe()

    def test_reset(self):
        stats = ServiceStats()
        stats.record_query(0.5, cached=False)
        stats.reset()
        assert stats.snapshot().queries == 0

    def test_latency_window_is_bounded_but_counters_are_lifetime(self):
        stats = ServiceStats(window=4)
        for i in range(10):
            stats.record_query(float(i), cached=False)
        snapshot = stats.snapshot()
        assert snapshot.queries == 10  # lifetime count survives the window
        # Percentiles only see the 4 most recent samples (6..9).
        assert snapshot.p50_latency_seconds == pytest.approx(7.5)

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ServiceStats(window=0)


class TestQueryService:
    def test_query_convenience_matches_engine_query(self, fig1_service):
        result = fig1_service.query(0, 7, ["t1", "t2", "t3"], 8.0, algorithm="osscaling")
        assert result.feasible
        assert tuple(result.route.nodes) == (0, 3, 4, 7)

    def test_unknown_algorithm_rejected_up_front(self, fig1_service):
        query = KORQuery(0, 7, ("t1",), 8.0)
        with pytest.raises(QueryError):
            fig1_service.submit(query, algorithm="quantum")
        with pytest.raises(QueryError):
            fig1_service.execute([query], algorithm="quantum")

    def test_trace_param_bypasses_cache(self, fig1_engine):
        service = QueryService(fig1_engine, cache_capacity=16)
        query = KORQuery(0, 7, ("t1", "t2"), 8.0)
        trace_a, trace_b = SearchTrace(), SearchTrace()
        service.submit(query, algorithm="osscaling", trace=trace_a)
        service.submit(query, algorithm="osscaling", trace=trace_b)
        assert len(service.cache) == 0  # never stored
        assert trace_a.events and trace_b.events  # both calls really ran

    def test_submit_records_error_and_reraises(self, fig1_engine):
        service = QueryService(fig1_engine, cache_capacity=16)
        bad = KORQuery(500, 7, ("t1",), 8.0)
        with pytest.raises(QueryError):
            service.submit(bad, algorithm="bucketbound")
        assert service.snapshot().errors == 1

    def test_from_graph_builds_engine(self, fig1_graph):
        service = QueryService.from_graph(fig1_graph, cache_capacity=8)
        assert service.engine.graph is fig1_graph
        assert service.cache.capacity == 8

    def test_default_workers_validated(self, fig1_engine):
        with pytest.raises(QueryError):
            QueryService(fig1_engine, default_workers=0)

    def test_empty_batch(self, fig1_service):
        report = fig1_service.execute([], algorithm="bucketbound")
        assert report.items == [] and report.ok
        assert fig1_service.run_batch([]) == []

    def test_batch_rejects_per_query_params(self, fig1_engine, fig1_service):
        query = KORQuery(0, 7, ("t1",), 8.0)
        binding = fig1_engine.bind(query)
        with pytest.raises(QueryError, match="per-query"):
            fig1_service.execute([query], binding=binding)
        with pytest.raises(QueryError, match="per-query"):
            fig1_service.run_batch([query], candidates={})


class TestPercentileAgainstNumpy:
    """Property: ``percentile`` is ``numpy.percentile`` (linear method)."""

    @staticmethod
    def _np():
        import numpy as np

        return np

    def test_q0_is_min_and_q100_is_max(self):
        samples = [9.0, 2.0, 5.0, 7.0]
        assert percentile(samples, 0.0) == 2.0
        assert percentile(samples, 100.0) == 9.0

    def test_single_sample_is_every_percentile(self):
        for q in (0.0, 1.0, 50.0, 99.0, 100.0):
            assert percentile([4.2], q) == 4.2

    def test_two_samples_interpolate_linearly(self):
        np = self._np()
        for q in (0.0, 10.0, 25.0, 50.0, 75.0, 99.0, 100.0):
            assert percentile([1.0, 3.0], q) == pytest.approx(
                np.percentile([1.0, 3.0], q)
            )
        assert percentile([1.0, 3.0], 50.0) == pytest.approx(2.0)

    def test_property_matches_numpy(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        np = self._np()

        @settings(max_examples=150, deadline=None)
        @given(
            samples=st.lists(
                st.floats(
                    min_value=0.0,
                    max_value=1e6,
                    allow_nan=False,
                    allow_infinity=False,
                ),
                min_size=1,
                max_size=50,
            ),
            q=st.one_of(
                st.sampled_from([0.0, 50.0, 95.0, 99.0, 100.0]),
                st.floats(min_value=0.0, max_value=100.0),
            ),
        )
        def check(samples, q):
            assert percentile(samples, q) == pytest.approx(
                float(np.percentile(samples, q)), rel=1e-9, abs=1e-9
            )

        check()


class TestSLOAndEndpointAccounting:
    def test_p99_tracks_the_latency_window(self):
        stats = ServiceStats()
        samples = [i / 1000.0 for i in range(100)]
        for latency in samples:
            stats.record_query(latency, cached=False)
        snapshot = stats.snapshot()
        assert snapshot.p99_latency_seconds == pytest.approx(
            percentile(samples, 99.0)
        )
        assert snapshot.p99_latency_seconds >= snapshot.p95_latency_seconds
        assert "p99" in snapshot.describe()

    def test_slo_violations_counted_and_budgeted(self):
        stats = ServiceStats(slo_seconds=0.05)
        stats.record_query(0.010, cached=False)
        stats.record_query(0.100, cached=False)  # violation
        stats.record_query(0.060, cached=True)  # violation (hits count too)
        snapshot = stats.snapshot()
        assert snapshot.slo_seconds == 0.05
        assert snapshot.slo_violations == 2
        assert snapshot.slo_violation_rate == pytest.approx(2.0 / 3.0)
        # 66.7% violations against a 100% budget: 2/3 of budget spent.
        assert snapshot.slo_budget_used(budget_fraction=1.0) == pytest.approx(2.0 / 3.0)
        assert "SLO" in snapshot.describe()

    def test_no_slo_means_no_violation_accounting(self):
        stats = ServiceStats()
        stats.record_query(10.0, cached=False)
        snapshot = stats.snapshot()
        assert snapshot.slo_seconds is None
        assert snapshot.slo_violations == 0
        assert "SLO" not in snapshot.describe()

    def test_guards(self):
        with pytest.raises(ValueError, match="slo_seconds"):
            ServiceStats(slo_seconds=0.0)
        snapshot = ServiceStats().snapshot()
        assert snapshot.slo_violation_rate == 0.0  # idle: no division
        with pytest.raises(ValueError, match="budget_fraction"):
            snapshot.slo_budget_used(budget_fraction=0.0)

    def test_endpoint_counters(self):
        stats = ServiceStats()
        stats.record_endpoint("/query")
        stats.record_endpoint("/query", error=True)
        stats.record_endpoint("/healthz")
        snapshot = stats.snapshot()
        assert snapshot.endpoints == {
            "/query": {"requests": 2, "errors": 1},
            "/healthz": {"requests": 1, "errors": 0},
        }
        # The snapshot holds a copy, not the live dict.
        stats.record_endpoint("/query")
        assert snapshot.endpoints["/query"]["requests"] == 2

    def test_reset_clears_slo_and_endpoint_state(self):
        stats = ServiceStats(slo_seconds=0.01)
        stats.record_query(1.0, cached=False)
        stats.record_endpoint("/query", error=True)
        stats.reset()
        snapshot = stats.snapshot()
        assert snapshot.slo_violations == 0
        assert snapshot.endpoints == {}
        assert snapshot.slo_seconds == 0.01  # the SLO itself survives reset
