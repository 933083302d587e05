"""A batch that drops and re-creates edges leaves the world a rebuild leaves.

Closing a node drops its edges and re-opening it re-creates them at the
end of their out-rows.  When both happen in one ``apply_ops`` batch, every
cell subgraph must still be row for row the subgraph the new graph
induces (what :meth:`MutableWorld.rebuilt` builds its cells from):
adjacency order decides search tie-breaking, so a cell whose rows were
re-ordered can answer differently from a rebuilt world.  On road-120
with 3 cells these batches left 2 and 4 cell rows out of order while
the cells re-applied a merged delta to their old subgraphs.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import RoadConfig, build_road_graph
from repro.world import MutableWorld

from tests.properties.test_cow_graph_properties import assert_same_graph
from tests.properties.test_repair_properties import CELL_ARRAYS, assert_repair_equals_rebuild


def reopen(*nodes: int) -> list[dict]:
    """Close *nodes*, then open them again, in one batch."""
    return [{"op": "close_node", "node": node} for node in nodes] + [
        {"op": "open_node", "node": node} for node in nodes
    ]


#: Node 1 is a neighbour of node 0, so the second batch also re-creates
#: the edges between two re-opened nodes.
BATCHES = {"node-0": reopen(0), "nodes-0-1": reopen(0, 1)}


@pytest.fixture(scope="module")
def graph():
    graph = build_road_graph(RoadConfig(num_nodes=120))
    assert graph.has_edge(0, 1)
    return graph


def new_world(graph) -> MutableWorld:
    return MutableWorld(graph, num_cells=3)


def assert_same_index(got, want, num_keywords: int) -> None:
    for keyword_id in range(num_keywords):
        np.testing.assert_array_equal(got.postings(keyword_id), want.postings(keyword_id))


@pytest.mark.parametrize("name", BATCHES)
def test_batched_cells_equal_the_induced_subgraphs_and_a_rebuild(graph, name):
    world = new_world(graph)
    world.apply_ops(BATCHES[name])
    fresh = assert_repair_equals_rebuild(world)
    num_keywords = len(graph.keyword_table)
    for state, rebuilt in zip(world.cells, fresh.cells):
        induced, _mapping = world.graph.induced_subgraph(state.to_global.tolist())
        assert_same_graph(state.subgraph, induced)
        assert_same_graph(state.subgraph, rebuilt.subgraph)
    assert_same_index(world.index, fresh.index, num_keywords)


@pytest.mark.parametrize("name", BATCHES)
def test_a_batch_leaves_the_world_its_ops_leave_one_call_at_a_time(graph, name):
    batched, stepped = new_world(graph), new_world(graph)
    batched.apply_ops(BATCHES[name])
    for op in BATCHES[name]:
        stepped.apply_ops([op])
    assert_same_graph(batched.graph, stepped.graph)
    assert batched.closed_nodes == stepped.closed_nodes == frozenset()
    for mine, theirs in zip(batched.cells, stepped.cells):
        assert_same_graph(mine.subgraph, theirs.subgraph)
        for array in CELL_ARRAYS:
            np.testing.assert_array_equal(
                getattr(mine.tables, array), getattr(theirs.tables, array)
            )
    for array in CELL_ARRAYS:
        np.testing.assert_array_equal(
            getattr(batched.tables, f"border_{array}"), getattr(stepped.tables, f"border_{array}")
        )
