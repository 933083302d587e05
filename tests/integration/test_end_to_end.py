"""End-to-end integration: datasets -> engine/service -> every algorithm.

The pipeline tests run through *both* front doors — the bare
``KOREngine`` and the batched/cached ``QueryService`` — via the
``run_kor`` fixture, so the serving layer is exercised on the same
realistic workloads as the engine it wraps.
"""

import pytest

from repro.core.query import KORQuery
from repro.datasets.queries import QuerySetConfig, generate_query_set
from repro.service import QueryService


@pytest.fixture(scope="module")
def query_battery(small_flickr_engine):
    config = QuerySetConfig(num_queries=6, num_keywords=3, budget_limit=4.0, seed=13)
    return generate_query_set(
        small_flickr_engine.graph,
        small_flickr_engine.index,
        config,
        tables=small_flickr_engine.tables,
    )


@pytest.fixture(params=["engine", "service"])
def run_kor(request, small_flickr_engine, small_flickr_service):
    """One KOR call, through the engine or through the serving layer."""
    if request.param == "engine":
        return small_flickr_engine.run
    return small_flickr_service.submit


class TestFlickrPipeline:
    def test_all_algorithms_run_on_generated_queries(
        self, small_flickr_engine, run_kor, query_battery
    ):
        for query in query_battery:
            for algorithm in ("osscaling", "bucketbound", "greedy", "greedy2"):
                result = run_kor(query, algorithm=algorithm)
                if result.feasible:
                    assert result.route.covers(small_flickr_engine.graph, query.keywords)
                    assert result.route.budget_score <= query.budget_limit + 1e-9
                    assert result.route.source == query.source
                    assert result.route.target == query.target

    def test_approximations_agree_on_feasibility(self, run_kor, query_battery):
        for query in query_battery:
            oss = run_kor(query, algorithm="osscaling")
            bb = run_kor(query, algorithm="bucketbound")
            assert oss.feasible == bb.feasible

    def test_bucketbound_within_beta_of_osscaling(self, run_kor, query_battery):
        for query in query_battery:
            oss = run_kor(query, algorithm="osscaling", epsilon=0.5)
            bb = run_kor(query, algorithm="bucketbound", epsilon=0.5, beta=1.2)
            if oss.feasible:
                assert bb.route.objective_score <= oss.route.objective_score * 1.2 + 1e-6

    def test_topk_first_route_matches_top1(self, small_flickr_engine, run_kor, query_battery):
        for query in query_battery[:3]:
            top1 = run_kor(query, algorithm="osscaling")
            topk = small_flickr_engine.top_k(
                query.source, query.target, query.keywords, query.budget_limit,
                k=3, algorithm="osscaling",
            )
            assert top1.feasible == bool(topk.routes)
            if top1.feasible:
                assert topk.routes[0].objective_score <= top1.route.objective_score + 1e-9


class TestServicePipeline:
    def test_batched_serving_matches_engine_on_battery(
        self, small_flickr_engine, small_flickr_service, query_battery
    ):
        for algorithm in ("osscaling", "bucketbound"):
            batch = small_flickr_service.run_batch(query_battery, algorithm=algorithm)
            for query, served in zip(query_battery, batch):
                direct = small_flickr_engine.run(query, algorithm=algorithm)
                assert served.feasible == direct.feasible
                if direct.feasible:
                    assert served.route.objective_score == pytest.approx(
                        direct.route.objective_score
                    )
                    assert served.route.budget_score == pytest.approx(direct.route.budget_score)

    def test_serving_metrics_flow_end_to_end(self, small_flickr_engine, query_battery):
        service = QueryService(small_flickr_engine, cache_capacity=128)
        service.run_batch(query_battery, algorithm="bucketbound")
        service.run_batch(query_battery, algorithm="bucketbound")
        snapshot = service.snapshot()
        assert snapshot.queries == 2 * len(query_battery)
        assert snapshot.cache_hits >= len(query_battery)  # whole second pass
        assert snapshot.p95_latency_seconds >= snapshot.p50_latency_seconds
        assert snapshot.throughput_qps > 0


class TestRoadPipeline:
    def test_road_graph_end_to_end(self):
        from repro.core.engine import KOREngine
        from repro.datasets.road import RoadConfig, build_road_graph

        graph = build_road_graph(RoadConfig(num_nodes=150, seed=9))
        engine = KOREngine(graph)
        config = QuerySetConfig(num_queries=4, num_keywords=2, budget_limit=8.0, seed=5)
        queries = generate_query_set(graph, engine.index, config, tables=engine.tables)
        feasible = 0
        for query in queries:
            result = engine.run(query, algorithm="bucketbound")
            feasible += result.feasible
            if result.feasible:
                assert result.route.covers(graph, query.keywords)
        assert feasible >= 1  # the screen makes most queries solvable

    def test_road_graph_served_end_to_end(self):
        from repro.core.engine import KOREngine
        from repro.datasets.road import RoadConfig, build_road_graph

        graph = build_road_graph(RoadConfig(num_nodes=150, seed=9))
        service = QueryService(KOREngine(graph), cache_capacity=64)
        config = QuerySetConfig(num_queries=4, num_keywords=2, budget_limit=8.0, seed=5)
        queries = generate_query_set(
            graph, service.engine.index, config, tables=service.engine.tables
        )
        batch = service.run_batch(queries, algorithm="bucketbound")
        feasible = sum(result.feasible for result in batch)
        for query, result in zip(queries, batch):
            if result.feasible:
                assert result.route.covers(graph, query.keywords)
        assert feasible >= 1


class TestPrebuiltComponentsMatchFreshOnes:
    def test_saved_and_loaded_tables_give_same_answers(self, small_flickr_engine, tmp_path):
        from repro.core.engine import KOREngine
        from repro.prep.tables import CostTables

        path = tmp_path / "tables.npz"
        small_flickr_engine.tables.save(path)
        loaded_engine = KOREngine(small_flickr_engine.graph, tables=CostTables.load(path))
        query = KORQuery(0, small_flickr_engine.graph.num_nodes - 1, (), 6.0)
        fresh = small_flickr_engine.run(query, algorithm="osscaling")
        reloaded = loaded_engine.run(query, algorithm="osscaling")
        assert fresh.feasible == reloaded.feasible
        if fresh.feasible:
            assert fresh.route.objective_score == pytest.approx(reloaded.route.objective_score)
