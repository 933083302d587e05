"""Cross-shard differential testing: ShardedQueryService vs flat KOREngine.

The sharded service's contract, exercised for **every** algorithm over
randomized graphs and ≥ 3 partition granularities:

* ``num_cells=1`` — the single cell is the whole graph, so every answer
  must match the flat engine **exactly** (same route, same scores, same
  failure reason);
* any granularity — answers must be *sound* (a returned route exists in
  the full graph, covers the query keywords and fits the budget) and
  never beat the true optimum certified by the flat ``exact`` engine;
* feasibility equivalence — for the complete algorithms the sharded
  service finds a feasible route exactly when the flat engine does: the
  scatter wave always includes the cross-cell ``BorderEngine``, whose
  border-table assembly is exact over the full graph; the greedy
  heuristics may only become *more* feasible (a cell-local greedy can
  succeed where the flat greedy wanders off).

Graphs stay tiny and edge weights >= 1 so the ``exhaustive`` baseline's
walk enumeration stays bounded and ``exact`` optima are cheap to certify.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.route import Route
from repro.service import SerialBackend, ShardedQueryService

from tests.service.test_differential import fingerprint, random_instance
from tests.strategies import graph_and_query

#: Algorithms guaranteed to find a feasible route whenever one exists.
COMPLETE_ALGORITHMS = ("osscaling", "bucketbound", "exact", "exhaustive")

GRANULARITIES = (1, 2, 3)


def assert_sound(graph, query, result):
    """A feasible sharded answer must hold up on the *full* graph."""
    rescored = Route.from_nodes(graph, result.route.nodes)  # raises on fake edges
    assert rescored.objective_score == pytest.approx(result.objective_score)
    assert rescored.budget_score == pytest.approx(result.budget_score)
    assert result.route.covers(graph, query.keywords)
    assert result.budget_score <= query.budget_limit + 1e-9
    assert result.route.source == query.source
    assert result.route.target == query.target


@pytest.mark.parametrize("num_cells", GRANULARITIES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_sharded_matches_flat_contract(algorithm, num_cells, service_backend):
    """Soundness + upper bound + feasibility equivalence, per algorithm."""
    for seed in (0, 1, 2):
        engine, queries = random_instance(seed)
        graph = engine.graph
        cells = min(num_cells, graph.num_nodes)
        flat = [engine.run(q, algorithm=algorithm) for q in queries]
        optima = [engine.run(q, algorithm="exact") for q in queries]

        service = ShardedQueryService(graph, num_cells=cells, backend=service_backend)
        report = service.execute(queries, algorithm=algorithm)
        assert [item.query for item in report.items] == queries

        for item, flat_result, optimum, query in zip(
            report.items, flat, optima, queries
        ):
            assert item.ok, f"slot {item.index} failed: {item.error}"
            result = item.result
            if cells == 1:
                assert fingerprint(result) == fingerprint(flat_result)
            if algorithm in COMPLETE_ALGORITHMS:
                assert result.feasible == flat_result.feasible
            elif flat_result.feasible:
                # Greedy may improve through a cell, never regress: the
                # cross-cell attempt sees the whole graph through exact
                # border tables, like the flat engine did.
                assert result.feasible
            if result.feasible:
                assert_sound(graph, query, result)
                # Soundness invariant: nothing the sharded service
                # returns beats the certified optimum.
                assert result.objective_score >= optimum.objective_score - 1e-9


@pytest.mark.parametrize("num_cells", GRANULARITIES)
def test_sharded_warm_cache_stays_identical(num_cells, service_backend):
    """A warm second pass (pure cache hits) repeats the cold answers."""
    engine, queries = random_instance(3)
    cells = min(num_cells, engine.graph.num_nodes)
    service = ShardedQueryService(
        engine.graph, num_cells=cells, backend=service_backend
    )
    cold = service.run_batch(queries, algorithm="bucketbound")
    warm = service.run_batch(queries, algorithm="bucketbound")
    assert [fingerprint(r) for r in warm] == [fingerprint(r) for r in cold]
    assert service.snapshot().cache_hits >= len(queries)


def test_single_submits_match_batches(service_backend):
    """The one-at-a-time path routes and merges exactly like batches."""
    engine, queries = random_instance(5)
    cells = min(2, engine.graph.num_nodes)
    batch_service = ShardedQueryService(
        engine.graph, num_cells=cells, seed=1, backend=service_backend
    )
    single_service = ShardedQueryService(
        engine.graph, num_cells=cells, seed=1, backend=service_backend
    )
    batched = batch_service.run_batch(queries, algorithm="osscaling")
    for query, expected in zip(queries, batched):
        got = single_service.submit(query, algorithm="osscaling")
        assert fingerprint(got) == fingerprint(expected)


def test_vocabulary_missing_keyword_routes_straight_to_crosscell(service_backend):
    """No engine can cover an unknown keyword: one cross-cell run, no
    local attempt, flat-identical failure."""
    from repro.core.query import KORQuery

    engine, _ = random_instance(0)
    cells = min(2, engine.graph.num_nodes)
    service = ShardedQueryService(engine.graph, num_cells=cells, backend=service_backend)
    query = KORQuery(0, engine.graph.num_nodes - 1, ("no-such-keyword",), 6.0)
    assert service.plan_of(query) == "keywords-missing-from-graph"
    result = service.submit(query, algorithm="bucketbound")
    flat = engine.run(query, algorithm="bucketbound")
    assert fingerprint(result) == fingerprint(flat)
    assert not result.feasible
    snapshot = service.snapshot()
    assert sum(snapshot.shard_tasks.values()) == 1  # exactly one crosscell task
    assert all(key.endswith("crosscell") for key in snapshot.shard_tasks)


def test_routing_stats_cover_every_computed_query(service_backend):
    """Per-shard counters account one-or-two tasks per computed query."""
    engine, queries = random_instance(1)
    cells = min(2, engine.graph.num_nodes)
    service = ShardedQueryService(engine.graph, num_cells=cells, backend=service_backend)
    report = service.execute(queries, algorithm="bucketbound")
    computed = sum(1 for item in report.items if not item.cached)
    snapshot = service.snapshot()
    total_tasks = sum(snapshot.shard_tasks.values())
    # Every computed unique query ran at least one task, at most two
    # (concurrent cell attempt + cross-cell assembly); duplicates share
    # one unit.
    unique = len({item.query for item in report.items})
    assert unique <= computed <= len(queries)
    assert unique <= total_tasks <= 2 * unique
    assert all(
        key.endswith("crosscell") or "/cell-" in key for key in snapshot.shard_tasks
    )
    # Every computed unit records exactly one merge outcome, and every
    # computed item carries its routing plan.
    assert sum(snapshot.merge_wins.values()) == unique
    assert all(item.plan is not None for item in report.items if not item.cached)


LENIENT = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


@LENIENT
@given(graph_and_query())
def test_property_sharded_never_beats_exact(instance):
    """Hypothesis sweep: the upper-bound invariant on generated graphs."""
    graph, source, target, keywords, delta = instance
    from repro.core.query import KORQuery

    query = KORQuery(source, target, keywords, delta)
    engine = KOREngine(graph)
    optimum = engine.run(query, algorithm="exact")

    backend = SerialBackend()
    service = ShardedQueryService(
        graph, num_cells=min(2, graph.num_nodes), backend=backend
    )
    result = service.submit(query, algorithm="bucketbound")
    assert result.feasible == optimum.feasible
    if result.feasible:
        assert_sound(graph, query, result)
        assert result.objective_score >= optimum.objective_score - 1e-9
