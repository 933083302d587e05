"""Differential testing: KOREngine over partitioned vs flat tables.

The cross-cell tier's contract is *flat-engine semantics from partitioned
state*: border-table assembly is exact (see
:mod:`repro.prep.partition`), so a :class:`KOREngine` over
:class:`PartitionedCostTables` must

* agree with the flat engine on **feasibility** for every algorithm
  (its pruning columns are mathematically identical);
* return routes that are **sound** on the full graph with scores that
  match the route's actual edge weights;
* never beat the certified optimum, and — for the ``exact`` algorithm —
  match it;
* survive the pickle round-trip :class:`EngineHandle` uses to ship it to
  process-pool workers, re-materialising over partitioned tables (not
  flat ones) with identical answers.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.engine import ALGORITHMS, KOREngine
from repro.exceptions import PrepError, QueryError
from repro.graph.generators import grid_graph
from repro.prep.partition import PartitionedCostTables
from repro.prep.tables import CostTables
from repro.service import EngineHandle

from tests.service.test_differential import fingerprint, random_instance
from tests.service.test_sharded_differential import assert_sound


def border_engine_for(graph, num_cells, seed=0) -> KOREngine:
    tables = PartitionedCostTables.from_graph(
        graph, num_cells=num_cells, seed=seed, predecessors=True
    )
    return KOREngine(graph, tables=tables)


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
                    assert got.objective_score == pytest.approx(optimum.objective_score)
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


@pytest.mark.parametrize(
    "tables",
    (
        lambda graph: CostTables.from_graph(graph),
        lambda graph: PartitionedCostTables.from_graph(graph, num_cells=2, predecessors=True),
    ),
    ids=("flat", "partitioned"),
)
def test_tables_of_another_node_count_are_refused_on_both_layouts(tables):
    engine, _ = random_instance(0)
    other = grid_graph(4, 8)
    assert other.num_nodes != engine.graph.num_nodes
    with pytest.raises(QueryError, match="tables cover 32 nodes"):
        KOREngine(engine.graph, tables=tables(other))


def test_pathless_partitioned_tables_fail_like_pathless_flat_ones():
    """Tables built with ``predecessors=False`` are accepted on both
    layouts; a search that materialises a route fails with the same
    :class:`PrepError`, and every other outcome is the same too."""

    def outcome(engine, query, algorithm):
        try:
            return engine.run(query, algorithm=algorithm).feasible
        except PrepError as error:
            return str(error)

    engine, queries = random_instance(0)
    flat = KOREngine(engine.graph, predecessors=False)
    pathless = PartitionedCostTables.from_graph(engine.graph, num_cells=2, predecessors=False)
    partitioned = KOREngine(engine.graph, tables=pathless)
    refusals = []
    for algorithm in ALGORITHMS:
        for query in queries:
            got = outcome(partitioned, query, algorithm)
            assert got == outcome(flat, query, algorithm), (query, algorithm)
            if isinstance(got, str):
                refusals.append(got)
    assert refusals
    assert all("predecessors=False" in message for message in refusals)


def test_engine_handle_round_trip_keeps_partitioned_tables():
    """A pickled handle re-materialises an engine over the partitioned
    tables it carried, answering as the original did."""
    engine, queries = random_instance(2)
    border = border_engine_for(engine.graph, 2)
    handle = EngineHandle(border, key="crosscell-test")
    clone = pickle.loads(pickle.dumps(handle))
    rebuilt = clone.engine()
    assert type(rebuilt) is KOREngine
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
    graph = grid_graph(8, 8)
    border = border_engine_for(graph, 4, seed=1)
    flat_scores = PartitionedCostTables.flat_memory_bytes(graph.num_nodes)
    assert border.tables.memory_bytes() < flat_scores
    assert len(border.tables.partition.border_nodes) > 0
    assert border.tables.partition.num_cells == 4


@pytest.mark.timeout(120)
def test_thread_workers_share_the_bounded_table_caches(monkeypatch):
    """Four threads submitting 64 cross-cell queries to one service — the
    async front end's shape: concurrent callers, each running its waves
    inline over one tables object — with its row, column and leg caches
    shrunk to 16 entries so every caller keeps evicting what another is
    about to read, the switch interval shortened so they interleave
    mid-lookup, return exactly the one-caller answers, and the caches end
    within their bound."""
    import sys
    from concurrent.futures import ThreadPoolExecutor

    from repro.datasets import QuerySetConfig, RoadConfig, build_road_graph, generate_query_set
    from repro.prep.partition import _CACHE_MIN_ENTRIES
    from repro.service import ShardedQueryService
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

    jobs = [(query, algorithm) for algorithm in ("bucketbound", "greedy") for query in queries]

    def answers(service, callers):
        with service, ThreadPoolExecutor(max_workers=callers) as pool:
            return list(
                pool.map(lambda job: fingerprint(service.submit(job[0], algorithm=job[1])), jobs)
            )

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threaded = answers(ShardedQueryService(world=world, cache_capacity=0), callers=4)
    finally:
        sys.setswitchinterval(interval)
    tables = world.tables
    # Every cache is bounded by bytes: the one-byte budget holds it at
    # its entry floor.
    for cache in (tables._column_cache, tables._row_cache, tables._leg_cache):
        assert 0 < len(cache) <= _CACHE_MIN_ENTRIES == 16
    serial = answers(ShardedQueryService(world=world.rebuilt(), cache_capacity=0), callers=1)
    assert threaded == serial
