"""A refused update batch changes nothing, on any tier.

``resolve_ops`` validates a batch op by op against a mutator it advances
as it goes.  Before it was made all-or-nothing, a batch refused at op
``k`` left ops ``0..k-1`` applied to the *graph* while no table had been
repaired and no epoch had moved: the next accepted update then repaired
only its own cells, and served a mix — tables that still routed through
a node the graph had closed, a border tier read from the new graph, and
pool workers (who replay only accepted deltas) on yet another graph.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.engine import KOREngine
from repro.datasets import QuerySetConfig, RoadConfig, build_road_graph, generate_query_set
from repro.graph.mutation import MutationError
from repro.service import QueryService, ShardedQueryService, backend_from_name
from repro.world import MutableWorld

from tests.service.test_differential import fingerprint

pytestmark = pytest.mark.timeout(300)

#: The searches that stay tractable on a 120-node road graph.
BATTERY_ALGORITHMS = ("bucketbound", "osscaling", "greedy")

TABLE_ARRAYS = ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "pred_tau", "pred_sigma")


@pytest.fixture(scope="module")
def graph():
    return build_road_graph(RoadConfig(num_nodes=120, seed=3))


def new_world(graph) -> MutableWorld:
    return MutableWorld(graph, num_cells=3, seed=0)


@pytest.fixture(scope="module")
def queries(graph):
    world = new_world(graph)
    config = QuerySetConfig(num_queries=12, num_keywords=2, budget_limit=8.0, seed=5)
    return generate_query_set(graph, world.index, config, tables=world.tables)


@pytest.fixture(scope="module")
def closed(graph, queries) -> int:
    """A node in the middle of a served route: closing it moves answers."""
    engine = KOREngine(graph)
    routes = (engine.run(query, algorithm="bucketbound").route for query in queries)
    return next(route.nodes[len(route.nodes) // 2] for route in routes if route and len(route.nodes) > 2)


@pytest.fixture(scope="module")
def refused(closed) -> list[dict]:
    """Valid first op, refused second op: the batch must leave no trace."""
    return [{"op": "close_node", "node": closed}, {"op": "close_node", "node": closed}]


@pytest.fixture(scope="module")
def recost(graph, closed) -> list[dict]:
    """A valid re-cost inside a cell other than the refused node's."""
    cell_of = new_world(graph).partition.cell_of
    u, v, objective, budget = next(
        (u, v, objective, budget)
        for u in range(graph.num_nodes)
        for v, objective, budget in graph.out_edges(u)
        if cell_of[u] == cell_of[v] != cell_of[closed]
    )
    return [{"op": "update_edge_cost", "u": u, "v": v, "objective": objective * 3, "budget": budget * 2}]


def assert_worlds_bit_equal(repaired: MutableWorld, rebuilt: MutableWorld) -> None:
    for mine, theirs in zip(repaired.cells, rebuilt.cells):
        for name in TABLE_ARRAYS:
            np.testing.assert_array_equal(getattr(mine.tables, name), getattr(theirs.tables, name))
        for u in range(theirs.subgraph.num_nodes):
            assert mine.subgraph.out_edges(u) == theirs.subgraph.out_edges(u)
            assert mine.subgraph.node_keywords(u) == theirs.subgraph.node_keywords(u)
    for name in TABLE_ARRAYS:
        np.testing.assert_array_equal(
            getattr(repaired.tables, f"border_{name}"), getattr(rebuilt.tables, f"border_{name}")
        )


def test_world_refused_batch_leaves_graph_and_repairs_intact(graph, closed, refused, recost):
    world = new_world(graph)
    with pytest.raises(MutationError, match="already closed"):
        world.apply_ops(refused)
    assert world.graph is graph
    assert world.closed_nodes == frozenset()
    assert world.epoch == 0
    assert world.graph.out_degree(closed) > 0

    update = world.apply_ops(recost)
    assert world.epoch == 1
    assert int(world.partition.cell_of[closed]) not in update.repaired_cells
    assert_worlds_bit_equal(world, world.rebuilt())
    # The refused closure really is gone: closing the node now succeeds.
    world.apply_ops([{"op": "close_node", "node": closed}])
    assert world.closed_nodes == frozenset({closed})
    assert_worlds_bit_equal(world, world.rebuilt())


def battery(service, queries):
    return {
        algorithm: [fingerprint(r) for r in service.run_batch(queries, algorithm=algorithm)]
        for algorithm in BATTERY_ALGORITHMS
    }


def test_flat_service_refused_batch_is_not_applied_later(
    graph, closed, refused, recost, queries, service_backend
):
    """Flat tier: the refused op must not take effect at the next update,
    and pool workers (who replay only the accepted delta) must agree."""
    service = QueryService(KOREngine(graph), cache_capacity=64, backend=service_backend)
    with pytest.raises(MutationError, match="already closed"):
        service.apply_ops(refused)
    assert service.epoch == 0
    assert service.engine.graph is graph

    assert service.apply_ops(recost) == 1
    assert service.engine.graph.out_edges(closed) == graph.out_edges(closed)

    twin = QueryService(KOREngine(graph), cache_capacity=64, backend=backend_from_name("serial"))
    try:
        twin.apply_ops(recost)
        assert battery(service, queries) == battery(twin, queries)
    finally:
        twin.close()
        service.close()


def test_sharded_service_refused_batch_keeps_parent_and_workers_agreeing(
    graph, refused, recost, queries, service_backend
):
    world = new_world(graph)
    service = ShardedQueryService(world=world, backend=service_backend)
    service.run_batch(queries[:3], algorithm="greedy")  # materialise the lanes
    with pytest.raises(MutationError, match="already closed"):
        service.apply_ops(refused)
    assert service.epoch == 0 and world.graph is graph

    service.apply_ops(recost)
    assert_worlds_bit_equal(world, world.rebuilt())
    oracle = ShardedQueryService(world=world.rebuilt(), backend=backend_from_name("serial"))
    try:
        assert battery(service, queries) == battery(oracle, queries)
    finally:
        oracle.close()
        service.close()


@pytest.mark.parametrize("tier", ["flat", "sharded"])
def test_process_backend_answers_like_a_service_that_never_saw_the_batch(
    graph, refused, recost, queries, tier
):
    """The reproduction from the issue, on the backend whose workers only
    ever see accepted deltas: refused batch, then a valid update, against
    a serial service that was only ever sent the valid update."""

    def serve(backend_name, batches):
        backend = backend_from_name(backend_name, workers=2)
        if tier == "flat":
            service = QueryService(KOREngine(graph), backend=backend)
        else:
            service = ShardedQueryService(world=new_world(graph), backend=backend)
        try:
            service.run_batch(queries[:3], algorithm="greedy")  # start the pool first
            for ops in batches:
                try:
                    service.apply_ops(ops)
                except MutationError:
                    assert ops is refused
            assert service.epoch == 1
            return battery(service, queries)
        finally:
            service.close()
            backend.close()

    assert serve("process", [refused, recost]) == serve("serial", [recost])
