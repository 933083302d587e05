"""Differential testing: QueryService vs sequential KOREngine.

For randomized graphs and query batteries, batch serving (with caching,
in-batch dedup, shared candidate sets and thread fan-out) must be
*semantically indistinguishable* from a plain sequential ``engine.run``
loop — for every algorithm in ``ALGORITHMS``, cached or not.

Graphs stay tiny and edge weights >= 1 so the ``exhaustive`` baseline's
walk enumeration stays bounded.
"""

from __future__ import annotations

import random

import pytest

from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.graph.builder import GraphBuilder
from repro.service import QueryService

KEYWORD_POOL = ("pub", "mall", "cafe", "park", "imax")
WEIGHTS = (1.0, 1.5, 2.0, 3.0)


def fingerprint(result):
    """Everything observable about a result except timing counters."""
    return (
        result.found,
        result.feasible,
        result.covers_keywords,
        result.within_budget,
        tuple(result.route.nodes) if result.route is not None else None,
        round(result.objective_score, 9),
        round(result.budget_score, 9),
        result.failure_reason,
    )


def random_instance(seed: int):
    """A seeded random graph + engine + query battery."""
    rng = random.Random(seed)
    n = rng.randint(3, 6)
    builder = GraphBuilder()
    for _ in range(n):
        count = rng.randint(0, 2)
        builder.add_node(keywords=rng.sample(KEYWORD_POOL, count))
    added = False
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < 0.55:
                builder.add_edge(u, v, rng.choice(WEIGHTS), rng.choice(WEIGHTS))
                added = True
    if not added:
        builder.add_edge(0, 1, 1.0, 1.0)
    graph = builder.build()
    engine = KOREngine(graph)

    present = sorted(set(graph.keyword_table.words))
    queries = []
    for _ in range(8):
        keywords = (
            tuple(rng.sample(present, rng.randint(1, min(2, len(present)))))
            if present
            else ()
        )
        queries.append(
            KORQuery(
                rng.randrange(n),
                rng.randrange(n),
                keywords,
                rng.choice((2.0, 4.0, 6.0)),
            )
        )
    return engine, queries


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_batch_matches_sequential(seed, algorithm):
    """Cold batch == sequential loop, slot by slot, every algorithm."""
    engine, queries = random_instance(seed)
    sequential = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]

    service = QueryService(engine, cache_capacity=256)
    batch = service.run_batch(queries, algorithm=algorithm)
    assert [fingerprint(r) for r in batch] == sequential


@pytest.mark.parametrize("algorithm", ALGORITHMS)
@pytest.mark.parametrize("seed", (0, 1))
def test_cached_batch_matches_sequential(seed, algorithm):
    """A warm second pass (pure cache hits) is still identical."""
    engine, queries = random_instance(seed)
    sequential = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]

    service = QueryService(engine, cache_capacity=256)
    service.run_batch(queries, algorithm=algorithm)
    warm = service.run_batch(queries, algorithm=algorithm)
    assert [fingerprint(r) for r in warm] == sequential
    snapshot = service.snapshot()
    assert snapshot.cache_hits >= len(queries)  # whole second pass from cache


@pytest.mark.parametrize("seed", (0, 5))
def test_single_submits_match_engine(seed):
    """The one-at-a-time path agrees with the engine too, hit or miss."""
    engine, queries = random_instance(seed)
    service = QueryService(engine, cache_capacity=256)
    for algorithm in ("osscaling", "bucketbound", "greedy"):
        for query in queries:
            expected = fingerprint(engine.run(query, algorithm=algorithm))
            assert fingerprint(service.submit(query, algorithm=algorithm)) == expected
            # Repeat (cache hit) stays identical.
            assert fingerprint(service.submit(query, algorithm=algorithm)) == expected


def test_reordered_keywords_hit_but_stay_correct():
    """A canonicalization hit serves a result valid for the reordered query."""
    engine, _ = random_instance(9)
    graph = engine.graph
    present = sorted(set(graph.keyword_table.words))
    if len(present) < 2:
        pytest.skip("instance drew a graph without two distinct keywords")
    forward = KORQuery(0, graph.num_nodes - 1, tuple(present[:2]), 6.0)
    backward = KORQuery(0, graph.num_nodes - 1, tuple(reversed(present[:2])), 6.0)

    service = QueryService(engine, cache_capacity=64)
    first = service.submit(forward, algorithm="bucketbound")
    second = service.submit(backward, algorithm="bucketbound")
    assert second is first  # same canonical key, same cached object
    direct = engine.run(backward, algorithm="bucketbound")
    # Keyword *sets* are what KOR optimises over: scores must agree.
    assert second.feasible == direct.feasible
    assert second.objective_score == pytest.approx(direct.objective_score)
    assert second.budget_score == pytest.approx(direct.budget_score)
    if second.feasible:
        assert second.route.covers(graph, backward.keywords)
