"""Differential testing: BorderEngine vs flat KOREngine.

The cross-cell tier's contract is *flat-engine semantics from partitioned
state*: border-table assembly is exact (see
:mod:`repro.prep.partition`), so a :class:`BorderEngine` must

* agree with the flat engine on **feasibility** for every algorithm
  (its pruning columns are mathematically identical);
* return routes that are **sound** on the full graph with scores that
  match the route's actual edge weights;
* never beat the certified optimum, and — for the ``exact`` algorithm —
  match it;
* survive the pickle round-trip :class:`EngineHandle` uses to ship it to
  process-pool workers, re-materialising as a ``BorderEngine`` (not a
  flat engine) with identical answers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import ALGORITHMS, KOREngine
from repro.prep.partition import PartitionedCostTables
from repro.service import BorderEngine, EngineHandle
from repro.service.crosscell import BorderEngine as CrosscellBorderEngine

from tests.service.test_differential import fingerprint, random_instance
from tests.service.test_sharded_differential import assert_sound


def border_engine_for(graph, num_cells, seed=0) -> BorderEngine:
    tables = PartitionedCostTables.from_graph(
        graph, num_cells=num_cells, seed=seed, predecessors=True
    )
    return BorderEngine(graph, tables=tables)


@pytest.mark.parametrize("num_cells", (1, 2, 3))
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_border_engine_matches_flat_semantics(algorithm, num_cells):
    """Feasibility-identical, sound, never better than the optimum."""
    for seed in (0, 1, 2):
        engine, queries = random_instance(seed)
        graph = engine.graph
        border = border_engine_for(graph, min(num_cells, graph.num_nodes))
        for query in queries:
            flat = engine.run(query, algorithm=algorithm)
            got = border.run(query, algorithm=algorithm)
            assert got.feasible == flat.feasible, (query, algorithm)
            if got.feasible:
                assert_sound(graph, query, got)
                optimum = engine.run(query, algorithm="exact")
                assert got.objective_score >= optimum.objective_score - 1e-9
                if algorithm == "exact":
                    assert got.objective_score == pytest.approx(
                        optimum.objective_score
                    )
            else:
                assert got.failure_reason == flat.failure_reason


def test_single_cell_border_engine_is_flat_identical():
    """With one cell the assembled tables *are* the flat tables."""
    engine, queries = random_instance(4)
    border = border_engine_for(engine.graph, 1)
    for query in queries:
        for algorithm in ("bucketbound", "exact"):
            assert fingerprint(border.run(query, algorithm=algorithm)) == fingerprint(
                engine.run(query, algorithm=algorithm)
            )


def test_border_engine_rejects_flat_tables_and_scoreless_tables():
    from repro.exceptions import QueryError

    engine, _ = random_instance(0)
    with pytest.raises(QueryError):
        BorderEngine(engine.graph, tables=engine.tables)
    scoreless = PartitionedCostTables.from_graph(
        engine.graph, num_cells=2, predecessors=False
    )
    with pytest.raises(QueryError):
        BorderEngine(engine.graph, tables=scoreless)


def test_engine_handle_round_trip_preserves_border_engine():
    """A pickled handle re-materialises the cross-cell engine class."""
    engine, queries = random_instance(2)
    border = border_engine_for(engine.graph, 2)
    handle = EngineHandle(border, key="crosscell-test")
    clone = pickle.loads(pickle.dumps(handle))
    rebuilt = clone.engine()
    assert type(rebuilt) is CrosscellBorderEngine
    assert isinstance(rebuilt.tables, PartitionedCostTables)
    for query in queries:
        assert fingerprint(rebuilt.run(query, algorithm="bucketbound")) == fingerprint(
            border.run(query, algorithm="bucketbound")
        )


def test_engine_handle_round_trip_still_builds_flat_engines():
    """Plain engines keep materialising as plain engines."""
    engine, queries = random_instance(2)
    clone = pickle.loads(pickle.dumps(EngineHandle(engine, key="flat-test")))
    rebuilt = clone.engine()
    assert type(rebuilt) is KOREngine
    query = queries[0]
    assert fingerprint(rebuilt.run(query, algorithm="bucketbound")) == fingerprint(
        engine.run(query, algorithm="bucketbound")
    )


def test_border_engine_memory_is_sublinear_in_flat():
    """The partitioned tier undercuts the flat score tables it replaces."""
    from repro.graph.generators import grid_graph

    graph = grid_graph(8, 8)
    border = border_engine_for(graph, 4, seed=1)
    flat_scores = PartitionedCostTables.flat_memory_bytes(graph.num_nodes)
    assert border.tables.memory_bytes() < flat_scores
    assert border.num_border_nodes > 0
    assert border.partition.num_cells == 4


@pytest.mark.timeout(120)
def test_thread_workers_share_the_bounded_table_caches(monkeypatch):
    """Four threads answering 64 cross-cell queries over one tables
    object — its row, column and leg caches shrunk to 16 entries so every
    worker keeps evicting what another is about to read, the switch
    interval shortened so they interleave mid-lookup — return exactly
    the serial answers, and the caches end within their bound."""
    import sys

    from repro.datasets import QuerySetConfig, RoadConfig, build_road_graph, generate_query_set
    from repro.service import SerialBackend, ShardedQueryService, ThreadBackend
    from repro.world import MutableWorld

    monkeypatch.setattr("repro.prep.partition._CACHE_BYTE_BUDGET", 1)
    graph = build_road_graph(RoadConfig(num_nodes=150, seed=7))
    world = MutableWorld(graph, num_cells=3, seed=0)
    cell_of = world.partition.cell_of
    queries = [
        query
        for keywords, seed in ((2, 5), (3, 6))
        for query in generate_query_set(
            graph,
            world.index,
            QuerySetConfig(num_queries=80, num_keywords=keywords, budget_limit=8.0, seed=seed),
            tables=world.tables,
        )
        if cell_of[query.source] != cell_of[query.target]
    ][:64]
    assert len(queries) == 64

    def answers(service):
        with service:
            return [
                fingerprint(result)
                for algorithm in ("bucketbound", "greedy")
                for result in service.run_batch(queries, algorithm=algorithm, workers=4)
            ]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadBackend(workers=4) as backend:
            threaded = answers(
                ShardedQueryService(world=world, backend=backend, cache_capacity=0, wave_size=1)
            )
    finally:
        sys.setswitchinterval(interval)
    tables = world.tables
    for cache in (tables._column_cache, tables._row_cache, tables._leg_cache):
        assert 0 < len(cache) <= cache.capacity == 16
    serial = answers(
        ShardedQueryService(world=world.rebuilt(), backend=SerialBackend(), cache_capacity=0)
    )
    assert threaded == serial
