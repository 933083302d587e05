"""Copy-on-write delta application == rebuilding the whole graph.

``apply_graph_delta`` derives the new graph from the rows a delta names
(``SpatialKeywordGraph.with_rows``).  The reference here is the body it
replaced: copy every adjacency row, edit, and hand everything to the full
constructor, which validates and summarises every edge.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.digraph import SpatialKeywordGraph
from repro.graph.mutation import GraphDelta, MutationError, apply_graph_delta

from tests.strategies import small_graphs

SLOW = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

WORDS = ("pub", "mall", "cafe", "zoo", "park")


def rebuild_with_delta(graph: SpatialKeywordGraph, delta: GraphDelta) -> SpatialKeywordGraph:
    """The rebuild-everything application (the pre-copy-on-write body)."""
    n = graph.num_nodes
    adjacency = [list(graph.out_edges(u)) for u in range(n)]
    for u, v in delta.drop_edges:
        adjacency[u] = [edge for edge in adjacency[u] if edge[0] != v]
    for u, v, obj, bud in delta.set_edges:
        for position, edge in enumerate(adjacency[u]):
            if edge[0] == v:
                adjacency[u][position] = (v, obj, bud)
                break
        else:
            adjacency[u].append((v, obj, bud))
    keywords = [graph.node_keywords(u) for u in range(n)]
    for node, words in delta.set_keywords:
        keywords[node] = graph.keyword_table.intern_many(words)
    coordinates = graph.coordinate_arrays
    return SpatialKeywordGraph(
        adjacency,
        keywords,
        graph.keyword_table,
        names=[graph.name_of(u) for u in range(n)],
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
def deltas(draw, graph: SpatialKeywordGraph) -> GraphDelta:
    """Re-costs, drops, (re-)created edges, keyword changes — or nothing."""
    n = graph.num_nodes
    weight = st.floats(0.01, 50.0, allow_nan=False)
    pairs = draw(
        st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=6, unique=True)
    )
    set_edges, drop_edges = [], []
    for u, v in pairs:
        if draw(st.booleans()):
            set_edges.append((u, v, draw(weight), draw(weight)))
        else:
            drop_edges.append((u, v))  # lenient: the edge need not exist
    nodes = draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))
    set_keywords = [
        (node, tuple(sorted(draw(st.sets(st.sampled_from(WORDS), max_size=3))))) for node in nodes
    ]
    return GraphDelta(tuple(set_edges), tuple(drop_edges), tuple(set_keywords))


class TestCopyOnWriteEqualsRebuild:
    @SLOW
    @given(small_graphs(min_nodes=2, max_nodes=7), st.data())
    def test_delta_sequences_match_the_full_constructor(self, graph, data):
        current = reference = graph
        for _step in range(data.draw(st.integers(1, 5))):
            delta = data.draw(deltas(current))
            derived = apply_graph_delta(current, delta)
            reference = rebuild_with_delta(reference, delta)
            assert_same_graph(derived, reference)
            if delta.is_empty:
                assert derived is current
            # Rows the delta does not name are the very tuples of the
            # parent graph: validated once, never copied.
            named = {u for u, *_rest in delta.set_edges} | {u for u, _v in delta.drop_edges}
            for u in set(range(graph.num_nodes)) - named:
                assert derived.out_edges(u) is current.out_edges(u)
            relabelled = {node for node, _words in delta.set_keywords}
            for u in set(range(graph.num_nodes)) - relabelled:
                assert derived.node_keywords(u) is current.node_keywords(u)
            assert derived.keyword_table is graph.keyword_table
            current = derived

    @SLOW
    @given(small_graphs(min_nodes=3, max_nodes=7), st.data())
    def test_an_induced_delta_derives_the_induced_subgraph(self, graph, data):
        """``delta.induced(mapping)`` applied to the old induced subgraph
        == the subgraph the new graph induces, row for row."""
        n = graph.num_nodes
        keep = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        subgraph, mapping = graph.induced_subgraph(keep)
        for _step in range(data.draw(st.integers(1, 4))):
            delta = data.draw(deltas(graph))
            graph = apply_graph_delta(graph, delta)
            subgraph = apply_graph_delta(subgraph, delta.induced(mapping))
            assert_same_graph(subgraph, graph.induced_subgraph(keep)[0])


class TestTouchedRowsAreValidated:
    """A touched row passes everything the constructor checks."""

    @pytest.fixture()
    def graph(self):
        from repro.graph.generators import grid_graph

        return grid_graph(2, 2)

    @pytest.mark.parametrize("weights", [(0.0, 1.0), (1.0, -1.0), (float("nan"), 1.0), (1.0, float("inf"))])
    def test_bad_weights_raise_graph_error(self, graph, weights):
        for target in (1, 3):  # a re-cost of (0, 1) and a created (0, 3)
            with pytest.raises(GraphError, match="finite and > 0"):
                apply_graph_delta(graph, GraphDelta(set_edges=((0, target, *weights),)))

    @pytest.mark.parametrize("u, v", [(0, 4), (4, 0), (-1, 0), (0, -1)])
    def test_out_of_range_endpoints_raise(self, graph, u, v):
        for delta in (GraphDelta(set_edges=((u, v, 1.0, 1.0),)), GraphDelta(drop_edges=((u, v),))):
            with pytest.raises(MutationError, match="outside the graph"):
                apply_graph_delta(graph, delta)
        with pytest.raises(MutationError, match="outside the graph"):
            apply_graph_delta(graph, GraphDelta(set_keywords=((4, ("pub",)),)))

    def test_a_duplicate_target_in_a_touched_row_raises(self, graph):
        # No delta can spell a duplicate (set_edges upserts), so reach the
        # row check the way apply_graph_delta does.
        with pytest.raises(GraphError, match="duplicate edge"):
            graph.with_rows({0: [*graph.out_edges(0), graph.out_edges(0)[0]]})
