"""Differential oracle for the dynamic world: incremental == rebuild.

The acceptance bar for live mutation (ISSUE 9): after **any** random
mutation sequence, a service repaired incrementally must be
fingerprint-identical to one rebuilt from scratch over the final graph —
for every algorithm in ``ALGORITHMS``, on the flat and the sharded tier,
on every execution backend (the CI matrix re-runs this module per
``REPRO_BACKEND``).

Sequences are seeded and validity-tracked: each op is generated against
the world state its predecessors produced, so every sequence is legal by
construction and replays identically against the service under test,
the from-scratch oracle, and any process-pool worker.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.graph.mutation import GraphMutator, resolve_ops
from repro.service import QueryService, ShardedQueryService
from repro.service.cache import ResultCache
from repro.service.faults import FaultPlan, FaultRule, injected
from repro.world import MutableWorld

from tests.properties.test_repair_properties import assert_repair_equals_rebuild
from tests.service.test_differential import (
    KEYWORD_POOL,
    WEIGHTS,
    fingerprint,
    random_instance,
)

pytestmark = pytest.mark.timeout(300)

#: The acceptance criterion's sequence length.
SEQUENCE_LENGTH = 50


def mutation_sequence(graph, seed: int, count: int = SEQUENCE_LENGTH):
    """*count* wire ops, each valid against the state its predecessors left.

    Tracks closure state through a scratch :class:`GraphMutator`, so the
    recorded list can be replayed verbatim against any replica of the
    same base graph.  Keeps at least two nodes open so the world never
    collapses to nothing queryable.
    """
    rng = random.Random(seed)
    mutator = GraphMutator(graph)
    ops = []
    while len(ops) < count:
        current = mutator.graph
        closed = mutator.closed_nodes
        open_nodes = [u for u in range(graph.num_nodes) if u not in closed]
        edges = [
            (u, v) for u in open_nodes for v, _obj, _bud in current.out_edges(u)
        ]
        kinds = ["update_keywords"]
        if edges:
            kinds.extend(["update_edge_cost"] * 3)
        # Closing may strip every remaining edge from a tiny graph, which
        # would make the scaling algorithms degenerate (theta needs a
        # finite min edge weight) — only offer closures that keep at
        # least one edge in the world.
        closable = []
        if len(open_nodes) > 2:
            total_edges = sum(len(current.out_edges(u)) for u in open_nodes)
            for node in open_nodes:
                incident = len(current.out_edges(node)) + sum(
                    1
                    for u in open_nodes
                    if u != node and current.has_edge(u, node)
                )
                if total_edges - incident >= 1:
                    closable.append(node)
        if closable:
            kinds.append("close_node")
        if closed:
            kinds.extend(["open_node"] * 2)
        kind = rng.choice(kinds)
        if kind == "update_edge_cost":
            u, v = rng.choice(edges)
            op = {"op": "update_edge_cost", "u": u, "v": v}
            which = rng.randrange(3)
            if which in (0, 2):
                op["objective"] = rng.choice(WEIGHTS)
            if which in (1, 2):
                op["budget"] = rng.choice(WEIGHTS)
        elif kind == "close_node":
            op = {"op": "close_node", "node": rng.choice(closable)}
        elif kind == "open_node":
            op = {"op": "open_node", "node": rng.choice(sorted(closed))}
        else:
            node = rng.choice(open_nodes)
            words = rng.sample(KEYWORD_POOL, rng.randint(0, 2))
            op = {"op": "update_keywords", "node": node, "keywords": words}
        mutator.apply_op(op)
        ops.append(op)
    return ops


def chunked(ops, seed: int):
    """Split *ops* into random batches of 1..5 (how callers really apply)."""
    rng = random.Random(seed ^ 0x5EED)
    start = 0
    while start < len(ops):
        size = rng.randint(1, 5)
        yield ops[start : start + size]
        start += size


def query_battery(graph, seed: int, count: int = 8):
    """Queries against whatever keywords the mutated world ended up with."""
    rng = random.Random(seed + 71)
    present = sorted(set(graph.keyword_table.words))
    n = graph.num_nodes
    queries = []
    for _ in range(count):
        keywords = (
            tuple(rng.sample(present, rng.randint(1, min(2, len(present)))))
            if present
            else ()
        )
        queries.append(
            KORQuery(rng.randrange(n), rng.randrange(n), keywords, rng.choice((2.0, 4.0, 6.0)))
        )
    return queries


def assert_all_algorithms_match(service, oracle_run, queries):
    """Service battery == oracle battery, per slot, every algorithm."""
    for algorithm in ALGORITHMS:
        expected = [fingerprint(oracle_run(q, algorithm)) for q in queries]
        got = [
            fingerprint(r)
            for r in service.run_batch(queries, algorithm=algorithm)
        ]
        assert got == expected, f"{algorithm}: incremental != rebuild"


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_flat_incremental_matches_fresh_engine(seed, service_backend):
    """Flat tier: a 50-op sequence applied through ``QueryService``
    serves exactly what a fresh engine over the final graph serves."""
    engine, _queries = random_instance(seed)
    ops = mutation_sequence(engine.graph, seed)

    service = QueryService(engine, cache_capacity=256, backend=service_backend)
    epochs = [service.apply_ops(batch) for batch in chunked(ops, seed)]
    assert epochs == sorted(set(epochs))  # one bump per batch, monotonic

    oracle_mutator = GraphMutator(engine.graph)
    resolve_ops(oracle_mutator, ops)
    oracle = KOREngine(oracle_mutator.graph)
    queries = query_battery(service.engine.graph, seed)
    assert_all_algorithms_match(
        service, lambda q, a: oracle.run(q, algorithm=a), queries
    )


@pytest.mark.parametrize("seed", (0, 1, 2))
def test_sharded_incremental_matches_rebuilt_world(seed, service_backend):
    """Sharded tier: incremental repair (cells + border tier) after a
    50-op sequence == a world rebuilt from scratch on the same
    partition, for all six algorithms."""
    engine, warmup = random_instance(seed)
    world = MutableWorld(engine.graph, num_cells=2, seed=0)
    service = ShardedQueryService(world=world, backend=service_backend)
    # Warm the backend (materialised engines, process lanes) *before*
    # mutating, so repair exercises the live patch-broadcast path and
    # not just fresh construction.
    service.run_batch(warmup[:4], algorithm="greedy")

    for batch in chunked(mutation_sequence(engine.graph, seed), seed):
        service.apply_ops(batch)
    assert service.epoch == world.epoch > 0

    oracle = ShardedQueryService(world=world.rebuilt())
    try:
        queries = query_battery(world.graph, seed)
        assert_all_algorithms_match(
            service,
            lambda q, a: oracle.run_batch([q], algorithm=a)[0],
            queries,
        )
    finally:
        oracle.close()


def test_convenience_methods_equal_wire_ops(service_backend):
    """The four typed methods and their wire-op spellings are the same
    mutation (same resulting answers, one epoch bump each)."""
    engine, _ = random_instance(0)
    via_methods = QueryService(KOREngine(engine.graph), cache_capacity=64)
    via_ops = QueryService(
        KOREngine(engine.graph), cache_capacity=64, backend=service_backend
    )

    via_methods.update_edge_cost(0, 1, objective=2.5)
    via_methods.close_node(2)
    via_methods.open_node(2)
    via_methods.update_keywords(1, ["imax", "park"])
    epoch = via_ops.apply_ops(
        [
            {"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.5},
            {"op": "close_node", "node": 2},
            {"op": "open_node", "node": 2},
            {"op": "update_keywords", "node": 1, "keywords": ["imax", "park"]},
        ]
    )
    assert via_methods.epoch == 4  # one bump per method call
    assert epoch == 1  # one bump for the whole batch

    queries = query_battery(via_ops.engine.graph, 0)
    for algorithm in ("bucketbound", "exact"):
        lhs = via_methods.run_batch(queries, algorithm=algorithm)
        rhs = via_ops.run_batch(queries, algorithm=algorithm)
        assert [fingerprint(r) for r in lhs] == [fingerprint(r) for r in rhs]


def test_world_level_incremental_repair_equals_rebuild():
    """``MutableWorld`` repair bookkeeping: repaired/refreshed cells are
    reported, the epoch counts batches, and the repaired tables — all six
    cell arrays and all six border arrays, secondaries and predecessors
    included — equal a from-scratch build on the same partition bit for
    bit."""
    engine, _ = random_instance(1)
    world = MutableWorld(engine.graph, num_cells=2, seed=0)
    ops = mutation_sequence(engine.graph, 9)
    for batch in chunked(ops, 9):
        update = world.apply_ops(batch)
        assert update.epoch == world.epoch
        assert set(update.repaired_cells) <= set(update.refreshed_cells)

    rebuilt = world.rebuilt()
    assert rebuilt.epoch == 0
    assert rebuilt.partition is world.partition
    assert_repair_equals_rebuild(world)


class TestUpdateWhileServing:
    """Chaos (satellite d): updates landing mid-flight never corrupt.

    Reuses the fault injectors from ``repro.service.faults`` to hold a
    batch open while ``apply_ops`` lands.  The containment invariant:
    a slot served during the update matches the pre-update world or the
    post-update world — never a silent third answer — and everything
    served *after* the update is exactly the new world.
    """

    def test_flat_update_mid_batch_serves_old_or_new_world(self, service_backend):
        engine, _ = random_instance(3)
        base_graph = engine.graph
        service = QueryService(engine, cache_capacity=64, backend=service_backend)
        queries = query_battery(base_graph, 3, count=10)
        pre_oracle = KOREngine(base_graph)
        pre = [fingerprint(pre_oracle.run(q, algorithm="exact")) for q in queries]

        ops = mutation_sequence(base_graph, 31, count=5)
        post_mutator = GraphMutator(base_graph)
        resolve_ops(post_mutator, ops)
        post_oracle = KOREngine(post_mutator.graph)
        post = [fingerprint(post_oracle.run(q, algorithm="exact")) for q in queries]

        plan = FaultPlan([FaultRule(kind="delay_task", seconds=0.02, times=4)])
        outcome = {}

        def serve():
            outcome["report"] = service.execute(queries, algorithm="exact")

        with injected(plan):
            worker = threading.Thread(target=serve)
            worker.start()
            time.sleep(0.01)
            service.apply_ops(ops)
            worker.join(60.0)

        report = outcome["report"]
        for index, (item, old, new) in enumerate(zip(report.items, pre, post)):
            assert item.result is not None, f"slot {index} failed mid-update"
            assert fingerprint(item.result) in (old, new), (
                f"slot {index} served an answer matching neither the "
                f"pre-update nor the post-update world"
            )
        # After the update the cache epoch has moved: serving is the new
        # world exactly, never a stale pre-update entry.
        after = service.run_batch(queries, algorithm="exact")
        assert [fingerprint(r) for r in after] == post

    def test_sharded_update_mid_batch_is_contained(self, service_backend):
        engine, _ = random_instance(4)
        world = MutableWorld(engine.graph, num_cells=2, seed=0)
        service = ShardedQueryService(world=world, backend=service_backend)
        queries = query_battery(world.graph, 4, count=10)
        service.run_batch(queries[:4], algorithm="greedy")  # warm lanes

        ops = mutation_sequence(world.graph, 41, count=5)
        plan = FaultPlan([FaultRule(kind="delay_task", seconds=0.02, times=4)])
        outcome = {}

        def serve():
            outcome["report"] = service.execute(queries, algorithm="exact")

        with injected(plan):
            worker = threading.Thread(target=serve)
            worker.start()
            time.sleep(0.01)
            service.apply_ops(ops)
            worker.join(60.0)

        # No slot may fail because an update landed mid-flight.
        assert all(item.result is not None for item in outcome["report"].items)

        # Post-update serving is exactly the rebuilt world, for every
        # algorithm — the repair + epoch fence left nothing stale behind.
        oracle = ShardedQueryService(world=world.rebuilt())
        try:
            assert_all_algorithms_match(
                service,
                lambda q, a: oracle.run_batch([q], algorithm=a)[0],
                queries,
            )
        finally:
            oracle.close()


class TestEpochFence:
    def test_leader_from_old_epoch_cannot_poison_new_epoch(self):
        """Regression (satellite c): a ``get_or_compute`` leader that
        resolves after a mid-flight ``invalidate()`` must not populate
        the new epoch's cache."""
        cache = ResultCache(capacity=8)
        computing = threading.Event()
        release = threading.Event()
        outcome = {}

        def slow_compute():
            computing.set()
            assert release.wait(5.0)
            return "stale-answer"

        def leader():
            outcome["value"], outcome["status"] = cache.get_or_compute(
                "key", slow_compute
            )

        worker = threading.Thread(target=leader)
        worker.start()
        assert computing.wait(5.0)
        cache.invalidate()  # the engine swap lands mid-flight
        release.set()
        worker.join(5.0)

        # The leader still gets its (old-world) answer...
        assert outcome["value"] == "stale-answer"
        # ...but the new epoch's cache never saw it.
        assert cache.get("key") is None

    def test_apply_ops_drops_inflight_old_epoch_writes(self, service_backend):
        """A query computed against the old graph must not be served
        from cache after the update that obsoleted it."""
        engine, _ = random_instance(2)
        service = QueryService(engine, cache_capacity=64, backend=service_backend)
        u, (v, _obj, _bud) = next(
            (node, edge)
            for node in range(engine.graph.num_nodes)
            for edge in engine.graph.out_edges(node)
        )
        query = KORQuery(u, v, (), 6.0)
        before = service.run_batch([query], algorithm="exact")[0]
        service.update_edge_cost(u, v, objective=0.25, budget=0.25)
        after = service.run_batch([query], algorithm="exact")[0]
        oracle = KOREngine(service.engine.graph)
        assert fingerprint(after) == fingerprint(oracle.run(query, algorithm="exact"))
        # The pre-update answer went through a strictly costlier edge.
        if before.found and after.found:
            assert after.budget_score <= before.budget_score


def test_cross_cell_jumps_follow_a_recosted_cell(service_backend):
    """Cross-cell ``bucketbound``/``osscaling`` answers read the border
    tier through cached legs and per-query readers: none may outlive its
    epoch.  A cell-interior edge on an answer's own route is re-costed
    and restored; at each step the served answers equal a world rebuilt
    from scratch, and after the restore they equal the first answers."""
    from repro.datasets import QuerySetConfig, RoadConfig, build_road_graph, generate_query_set

    graph = build_road_graph(RoadConfig(num_nodes=150, seed=7))
    world = MutableWorld(graph, num_cells=3, seed=0)
    service = ShardedQueryService(world=world, backend=service_backend)
    config = QuerySetConfig(num_queries=24, num_keywords=3, budget_limit=8.0, seed=5)
    cell_of = world.partition.cell_of
    queries = [
        query
        for query in generate_query_set(graph, world.index, config, tables=world.tables)
        if cell_of[query.source] != cell_of[query.target]
    ][:8]
    assert len(queries) == 8

    def served():
        return {
            algorithm: [fingerprint(r) for r in service.run_batch(queries, algorithm=algorithm)]
            for algorithm in ("bucketbound", "osscaling")
        }

    def rebuilt():
        oracle = ShardedQueryService(world=world.rebuilt())
        try:
            return {
                algorithm: [fingerprint(r) for r in oracle.run_batch(queries, algorithm=algorithm)]
                for algorithm in ("bucketbound", "osscaling")
            }
        finally:
            oracle.close()

    before = served()
    assert before == rebuilt()
    # An edge inside a cell other than the source's, on a served route:
    # the jump that produced the route crossed into that cell.
    u, v = next(
        (u, v)
        for query, answer in zip(queries, before["bucketbound"])
        if answer[4] is not None
        for u, v in zip(answer[4], answer[4][1:])
        if cell_of[u] == cell_of[v] != cell_of[query.source]
    )
    objective, budget = next((o, b) for w, o, b in graph.out_edges(u) if w == v)
    old_tables = service.border_engine.tables
    assert len(old_tables._leg_cache) > 0

    service.update_edge_cost(u, v, objective=objective * 8, budget=budget * 8)
    assert service.border_engine.tables is not old_tables
    during = served()
    assert during == rebuilt()
    assert during != before  # the re-cost moved at least one answer

    service.update_edge_cost(u, v, objective=objective, budget=budget)
    assert served() == before
    service.close()
