"""A mutated graph == rebuilding the whole graph from the same edits.

``GraphMutator`` derives each graph from the rows an operation names
(``SpatialKeywordGraph.with_rows``).  The reference here is a plain
model of the operations on adjacency lists, edited by the stated rule (an
updated edge keeps its position, a re-created edge is appended) and
handed whole to the full constructor, which validates and summarises
every edge.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.digraph import SpatialKeywordGraph
from repro.graph.mutation import GraphMutator, MutationError
from repro.prep.partition import partition_graph
from repro.world import MutableWorld

from tests.ops import recost
from tests.strategies import small_graphs

SLOW = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

WORDS = ("pub", "mall", "cafe", "zoo", "park")
WEIGHTS = (0.5, 1.0, 2.5, 7.0)


class Model:
    """The operations on plain lists: the reference the mutator must match."""

    def __init__(self, graph: SpatialKeywordGraph) -> None:
        self.base = graph
        n = graph.num_nodes
        self.adjacency = [list(graph.out_edges(u)) for u in range(n)]
        self.words = [sorted(graph.node_keyword_strings(u)) for u in range(n)]
        self.remembered = list(self.words)
        self.weights = {(u, v): (obj, bud) for u in range(n) for v, obj, bud in graph.out_edges(u)}
        self.closed: set[int] = set()

    def apply(self, op: dict) -> None:
        kind = op["op"]
        if kind == "update_edge_cost":
            u, v = op["u"], op["v"]
            self.weights[(u, v)] = weights = (op["objective"], op["budget"])
            row = self.adjacency[u]
            row[[target for target, _o, _b in row].index(v)] = (v, *weights)
        elif kind == "close_node":
            node = op["node"]
            self.closed.add(node)
            self.adjacency[node] = []
            for u, row in enumerate(self.adjacency):
                self.adjacency[u] = [edge for edge in row if edge[0] != node]
            self.words[node] = []
        elif kind == "open_node":
            node = op["node"]
            self.closed.discard(node)
            base = self.base
            incident = [(node, v) for v, _o, _b in base.out_edges(node)]
            incident += [(u, node) for u in range(base.num_nodes) if base.has_edge(u, node)]
            for u, v in incident:
                if u not in self.closed and v not in self.closed:
                    self.adjacency[u].append((v, *self.weights[(u, v)]))
            self.words[node] = self.remembered[node]
        else:
            self.words[op["node"]] = self.remembered[op["node"]] = sorted(set(op["keywords"]))

    def rebuild(self) -> SpatialKeywordGraph:
        graph, table = self.base, self.base.keyword_table
        coordinates = graph.coordinate_arrays
        return SpatialKeywordGraph(
            self.adjacency,
            [table.intern_many(words) for words in self.words],
            table,
            names=[graph.name_of(u) for u in range(graph.num_nodes)],
            xs=None if coordinates is None else coordinates[0],
            ys=None if coordinates is None else coordinates[1],
        )


def assert_same_graph(got: SpatialKeywordGraph, want: SpatialKeywordGraph) -> None:
    assert got.num_nodes == want.num_nodes
    for u in range(want.num_nodes):
        assert got.out_edges(u) == want.out_edges(u), u  # order included
        assert got.node_keywords(u) == want.node_keywords(u), u
        assert got.name_of(u) == want.name_of(u)
        assert got.coordinates(u) == want.coordinates(u)
    assert got.num_edges == want.num_edges
    assert (got.min_objective, got.max_objective) == (want.min_objective, want.max_objective)
    assert (got.min_budget, got.max_budget) == (want.min_budget, want.max_budget)
    for mine, theirs in zip(got.to_csr(), want.to_csr()):
        np.testing.assert_array_equal(mine, theirs)
    assert got.stats() == want.stats()


@st.composite
def batches(draw, mutator: GraphMutator) -> list[dict]:
    """1-4 ops, each valid against its predecessors' effects: re-costs,
    closures, re-openings (which re-create edges) and keyword changes.
    The ops are drawn on a scratch mutator; *mutator* is left as it is."""
    scratch = GraphMutator(mutator._base)
    scratch._restore(mutator._snapshot())
    ops = []
    for _step in range(draw(st.integers(1, 4))):
        graph, closed = scratch.graph, scratch.closed_nodes
        open_nodes = [u for u in range(graph.num_nodes) if u not in closed]
        edges = [(u, v) for u in open_nodes for v, _o, _b in graph.out_edges(u)]
        kinds = ["update_keywords", "close_node"] * bool(open_nodes)
        kinds += ["open_node"] * 2 * bool(closed) + ["update_edge_cost"] * bool(edges)
        kind = draw(st.sampled_from(kinds))
        if kind == "update_edge_cost":
            u, v = draw(st.sampled_from(edges))
            objective, budget = draw(st.sampled_from(WEIGHTS)), draw(st.sampled_from(WEIGHTS))
            op = {"op": kind, "u": u, "v": v, "objective": objective, "budget": budget}
        elif kind == "open_node":
            op = {"op": kind, "node": draw(st.sampled_from(sorted(closed)))}
        else:
            op = {"op": kind, "node": draw(st.sampled_from(open_nodes))}
            if kind == "update_keywords":
                op["keywords"] = draw(st.lists(st.sampled_from(WORDS), max_size=3))
        scratch.apply_ops([op])
        ops.append(op)
    return ops


class TestCopyOnWriteEqualsRebuild:
    @SLOW
    @given(small_graphs(min_nodes=2, max_nodes=7), st.data())
    def test_batch_sequences_match_the_full_constructor(self, graph, data):
        mutator, model = GraphMutator(graph), Model(graph)
        for _step in range(data.draw(st.integers(1, 5))):
            current = mutator.graph
            ops = data.draw(batches(mutator))
            delta = mutator.apply_ops(ops)
            for op in ops:
                model.apply(op)
            derived = mutator.graph
            assert_same_graph(derived, model.rebuild())
            # Rows the batch does not name are the very tuples of the
            # parent graph: validated once, never copied.
            named = {u for u, _v in delta.edges}
            for u in set(range(graph.num_nodes)) - named:
                assert derived.out_edges(u) is current.out_edges(u)
            relabelled = {node for node, _words in delta.keywords}
            for u in set(range(graph.num_nodes)) - relabelled:
                assert derived.node_keywords(u) is current.node_keywords(u)
            assert derived.keyword_table is graph.keyword_table

    @SLOW
    @given(small_graphs(min_nodes=3, max_nodes=7), st.integers(2, 3), st.data())
    def test_a_refreshed_cell_is_the_induced_subgraph(self, graph, cells, data):
        """Each cell subgraph a world refreshes == the subgraph the new
        graph induces on the cell, row for row."""
        world = MutableWorld(graph, partition=partition_graph(graph, cells, seed=0))
        for _step in range(data.draw(st.integers(1, 4))):
            world.apply_ops(data.draw(batches(world._mutator)))
            for state in world.cells:
                induced, _mapping = world.graph.induced_subgraph(state.to_global.tolist())
                assert_same_graph(state.subgraph, induced)


class TestTouchedRowsAreValidated:
    """A touched row passes everything the constructor checks."""

    @pytest.fixture()
    def graph(self):
        from repro.graph.generators import grid_graph

        return grid_graph(2, 2)

    @pytest.mark.parametrize(
        "weights", [(0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))]
    )
    def test_bad_weights_raise_graph_error(self, graph, weights):
        mutator = GraphMutator(graph)
        with pytest.raises(GraphError, match="finite and > 0"):
            mutator.apply_ops([recost(0, 1, *weights)])
        assert mutator.graph is graph

    @pytest.mark.parametrize("u, v", [(0, 4), (4, 0), (-1, 0), (0, -1)])
    def test_out_of_range_endpoints_raise(self, graph, u, v):
        mutator = GraphMutator(graph)
        outside = v if 0 <= u < graph.num_nodes else u
        ops = [
            {"op": "update_edge_cost", "u": u, "v": v, "objective": 1.0},
            {"op": "close_node", "node": outside},
            {"op": "open_node", "node": outside},
            {"op": "update_keywords", "node": outside, "keywords": ["pub"]},
        ]
        for op in ops:
            with pytest.raises(MutationError, match="outside the graph"):
                mutator.apply_ops([op])
        assert mutator.graph is graph

    def test_a_duplicate_target_in_a_touched_row_raises(self, graph):
        # No op can spell a duplicate (an existing edge is updated in
        # place), so reach the row check the way the mutator's row edit does.
        with pytest.raises(GraphError, match="duplicate edge"):
            graph.with_rows({0: [*graph.out_edges(0), graph.out_edges(0)[0]]})
