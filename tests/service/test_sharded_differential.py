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
  service finds a feasible route exactly when the flat engine does: every
  query is one search on a ``KOREngine`` over the partitioned tables,
  whose border-table assembly is exact over the full graph;
* the paper's bounds through the served tier — Theorem 2
  (``OSScaling <= OPT / (1 - eps)``) and Theorem 3
  (``BucketBound <= OPT * beta / (1 - eps)``) at 2 and 3 cells, before
  and after a live re-cost, against ``exact`` on the graph as it stands;
  and every served answer is the service engine's own
  (``service.engine.run``), fingerprint for fingerprint.

Graphs stay tiny and edge weights >= 1 so the ``exhaustive`` baseline's
walk enumeration stays bounded and ``exact`` optima are cheap to certify.
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.core.route import Route
from repro.service import SerialBackend, ShardedQueryService

from tests.ops import recost
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

        for item, flat_result, optimum, query in zip(report.items, flat, optima, queries):
            assert item.ok, f"slot {item.index} failed: {item.error}"
            result = item.result
            if cells == 1:
                assert fingerprint(result) == fingerprint(flat_result)
            if algorithm in COMPLETE_ALGORITHMS:
                assert result.feasible == flat_result.feasible
            elif flat_result.feasible:
                # The cross-cell engine sees the whole graph through exact
                # border tables, like the flat engine does.
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
    service = ShardedQueryService(engine.graph, num_cells=cells, backend=service_backend)
    cold = service.run_batch(queries, algorithm="bucketbound")
    warm = service.run_batch(queries, algorithm="bucketbound")
    assert [fingerprint(r) for r in warm] == [fingerprint(r) for r in cold]
    assert service.snapshot().cache_hits >= len(queries)


def test_single_submits_match_batches(service_backend):
    """The one-at-a-time path answers exactly like batches."""
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
    """No engine can cover an unknown keyword: one cross-cell run,
    flat-identical failure."""
    engine, _ = random_instance(0)
    cells = min(2, engine.graph.num_nodes)
    service = ShardedQueryService(engine.graph, num_cells=cells, backend=service_backend)
    query = KORQuery(0, engine.graph.num_nodes - 1, ("no-such-keyword",), 6.0)
    assert service.plan_of(query) == "crosscell"
    result = service.submit(query, algorithm="bucketbound")
    flat = engine.run(query, algorithm="bucketbound")
    assert fingerprint(result) == fingerprint(flat)
    assert not result.feasible
    snapshot = service.snapshot()
    assert sum(snapshot.shard_tasks.values()) == 1  # exactly one crosscell task
    assert all(key.endswith("crosscell") for key in snapshot.shard_tasks)


def test_routing_stats_cover_every_computed_query(service_backend):
    """Every computed unique query is exactly one task on the service's
    one handle, and one outcome in ``merge_wins``."""
    engine, queries = random_instance(1)
    cells = min(2, engine.graph.num_nodes)
    service = ShardedQueryService(engine.graph, num_cells=cells, backend=service_backend)
    report = service.execute(queries, algorithm="bucketbound")
    unique = len({item.query for item in report.items})
    (key,) = service.backend.shard_keys
    assert key.endswith("crosscell")
    snapshot = service.snapshot()
    assert snapshot.shard_tasks == {key: unique}
    assert sum(snapshot.merge_wins.values()) == unique
    assert set(snapshot.merge_wins) <= {"crosscell", "infeasible"}
    assert all(item.shard == key for item in report.items if not item.cached)
    assert {service.plan_of(query) for query in queries} == {"crosscell"}


LENIENT = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Approximation parameters the bounds are checked at (the defaults).
EPSILON, BETA = 0.5, 1.2
#: Each algorithm's parameters and its theorem's factor over the optimum.
BOUNDS = {
    "osscaling": ({"epsilon": EPSILON}, 1 / (1 - EPSILON)),  # Theorem 2
    "bucketbound": ({"epsilon": EPSILON, "beta": BETA}, BETA / (1 - EPSILON)),  # Theorem 3
}


def assert_within_paper_bounds(service, query):
    """Each served answer is ``service.engine.run``'s, sound on the graph
    being served, and within its theorem's factor of ``exact`` there."""
    graph = service.graph
    optimum = KOREngine(graph).run(query, algorithm="exact")
    for algorithm, (params, factor) in BOUNDS.items():
        result = service.submit(query, algorithm=algorithm, **params)
        direct = service.engine.run(query, algorithm=algorithm, **params)
        assert fingerprint(result) == fingerprint(direct), algorithm
        assert result.feasible == optimum.feasible, algorithm
        if result.feasible:
            assert_sound(graph, query, result)
            best = optimum.objective_score
            assert best - 1e-9 <= result.objective_score <= best * factor + 1e-9, algorithm


@LENIENT
@given(graph_and_query(), st.sampled_from((2, 3)))
def test_property_sharded_never_beats_exact(instance, num_cells):
    """Hypothesis sweep through the served tier: never below ``exact``,
    within Theorems 2 and 3, the engine's own answer — before and after
    one live re-cost."""
    graph, source, target, keywords, delta = instance
    query = KORQuery(source, target, keywords, delta)
    cells = min(num_cells, graph.num_nodes)
    with ShardedQueryService(graph, num_cells=cells, backend=SerialBackend()) as service:
        assert_within_paper_bounds(service, query)
        edges = [(u, v, o) for u in range(graph.num_nodes) for v, o, _b in graph.out_edges(u)]
        if edges:
            u, v, objective = edges[(source + target) % len(edges)]
            service.apply_ops([recost(u, v, objective=objective * 3)])
            assert_within_paper_bounds(service, query)
