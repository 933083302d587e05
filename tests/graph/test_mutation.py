"""Unit tests for the graph-mutation layer (the mutator and its batches).

The contract under test (see ``repro.graph.mutation``):

* resolution is **strict** — closing a closed node, re-costing a
  missing edge, non-positive weights are all :class:`MutationError`;
* a batch is **all or nothing**, and an empty batch is refused;
* a batch leaves exactly the graph its ops leave applied one call at a
  time, adjacency order included: an updated edge keeps its position, a
  re-created edge is appended.
"""

from __future__ import annotations

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.mutation import (
    MAX_EDGE_WEIGHT,
    MIN_EDGE_WEIGHT,
    GraphDelta,
    GraphMutator,
    MutationError,
)

from tests.ops import close, recost, relabel, reopen
from tests.properties.test_cow_graph_properties import assert_same_graph


def small_graph():
    """4 nodes, a cycle plus a chord, keywords on three of them."""
    builder = GraphBuilder()
    builder.add_node(keywords=["pub"])
    builder.add_node(keywords=["mall"])
    builder.add_node(keywords=["cafe", "pub"])
    builder.add_node()
    for u, v, obj, bud in (
        (0, 1, 1.0, 1.0),
        (1, 2, 2.0, 1.5),
        (2, 3, 1.0, 1.0),
        (3, 0, 1.5, 2.0),
        (0, 2, 3.0, 3.0),
    ):
        builder.add_edge(u, v, obj, bud)
    return builder.build()


def edge_map(graph):
    return {
        (u, v): (obj, bud)
        for u in range(graph.num_nodes)
        for v, obj, bud in graph.out_edges(u)
    }


def keyword_map(graph):
    return {u: tuple(sorted(graph.node_keyword_strings(u))) for u in range(graph.num_nodes)}


class TestWorldCells:
    def test_world_cell_subgraphs_track_the_induced_subgraph(self):
        """Over the seeded 50-op sequence, every cell subgraph the world
        refreshes is row for row the subgraph the new graph induces on
        that cell (adjacency order, keywords, bounds, CSR)."""
        from repro.world import MutableWorld
        from tests.service.test_differential import random_instance
        from tests.service.test_mutation_differential import chunked, mutation_sequence

        for seed in (0, 1, 2):
            engine, _queries = random_instance(seed)
            world = MutableWorld(engine.graph, num_cells=2, seed=0)
            for batch in chunked(mutation_sequence(engine.graph, seed), seed):
                before = world.cells
                update = world.apply_ops(batch)
                for cell, state in enumerate(world.cells):
                    induced, _mapping = world.graph.induced_subgraph(state.to_global.tolist())
                    assert_same_graph(state.subgraph, induced)
                    if cell not in update.refreshed_cells:
                        assert state is before[cell]


class TestRepairLocality:
    def test_intra_cell_recost_repairs_one_cell_of_eight(self):
        """Why repair beats a rebuild: re-costing an edge inside cell ``c``
        repairs ``c``'s tables and the border tier, and every other cell
        keeps its table object.  The cost of the two paths is the e2e
        ``sharded_mutating`` rows ``world.update_p50_ms`` / ``world.rebuild_ms``."""
        from repro.graph.generators import grid_graph
        from repro.world import MutableWorld

        world = MutableWorld(grid_graph(4, 48), num_cells=8)
        cell_of = world.partition.cell_of
        u, v, objective, budget = next(
            (u, v, obj, bud)
            for u in range(world.graph.num_nodes)
            for v, obj, bud in world.graph.out_edges(u)
            if cell_of[u] == cell_of[v]
        )
        c = int(cell_of[u])
        before = [state.tables for state in world.cells]

        update = world.apply_ops([recost(u, v, objective=2 * objective, budget=budget)])

        assert update.repaired_cells == (c,)
        assert update.border_rebuilt
        assert world.cells[c].tables is not before[c]
        for d, state in enumerate(world.cells):
            if d != c:
                assert state.tables is before[d]

    def test_a_recost_resweeps_only_the_rows_whose_tree_uses_the_edge(self):
        """Within the repaired cell, rows are the unit: raising an edge's
        weights on a road graph (no two nodes of a row at one distance)
        sweeps exactly the sources whose stored tree runs through the edge
        — never the edge head's own row, so fewer rows than the cell has —
        and copies the rest."""
        from repro.datasets import RoadConfig, build_road_graph
        from repro.world import MutableWorld

        from tests.properties.test_repair_properties import assert_repair_equals_rebuild

        world = MutableWorld(build_road_graph(RoadConfig(num_nodes=150, seed=7)), num_cells=3)
        cell_of = world.partition.cell_of
        u, v, objective, budget = next(
            (u, v, obj, bud)
            for u in range(world.graph.num_nodes)
            for v, obj, bud in world.graph.out_edges(u)
            if cell_of[u] == cell_of[v]
        )
        state = world.cells[int(cell_of[u])]
        lu, lv = state.to_local[u], state.to_local[v]
        users = {
            kind: int((pred[:, lv] == lu).sum())
            for kind, pred in (("tau", state.tables.pred_tau), ("sigma", state.tables.pred_sigma))
        }

        update = world.apply_ops([recost(u, v, objective=2 * objective, budget=2 * budget)])

        for kind, (cell_rows, overlay_rows) in update.swept_rows.items():
            assert 0 < cell_rows == users[kind] < len(state.to_global), kind
            assert overlay_rows < len(world.partition.border_nodes), kind
        assert_repair_equals_rebuild(world)


class TestGraphMutator:
    def test_update_edge_cost_partial_weights_persist(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([recost(0, 1, objective=4.0)])
        assert mutator.graph.edge(0, 1) == (4.0, 1.0)
        mutator.apply_ops([recost(0, 1, budget=6.0)])
        assert mutator.graph.edge(0, 1) == (4.0, 6.0)

    def test_update_edge_cost_validation(self):
        mutator = GraphMutator(small_graph())
        with pytest.raises(MutationError, match="no edge"):
            mutator.apply_ops([recost(1, 0, objective=2.0)])
        with pytest.raises(MutationError, match="needs objective"):
            mutator.apply_ops([recost(0, 1)])
        with pytest.raises(MutationError, match="finite and > 0"):
            mutator.apply_ops([recost(0, 1, objective=0.0)])
        with pytest.raises(MutationError, match="finite and > 0"):
            mutator.apply_ops([recost(0, 1, budget=float("inf"))])
        with pytest.raises(MutationError, match="outside the graph"):
            mutator.apply_ops([recost(0, 99, objective=1.0)])

    @pytest.mark.parametrize("weight", [5e-324, 1e-300, 1e-10, 1.1e9, 1e308])
    def test_update_edge_cost_refuses_unscalable_weights(self, weight):
        """theta = eps * o_min * b_min / Delta must stay representable:
        an out-of-range weight is refused, named bound and all, and
        nothing is applied or remembered."""
        mutator = GraphMutator(small_graph())
        graph = mutator.graph
        for kwargs in (
            {"objective": weight},
            {"budget": weight},
            {"objective": weight, "budget": weight},
        ):
            with pytest.raises(MutationError, match=r"must lie in \[1e-09, 1000000000\.0\]"):
                mutator.apply_ops([recost(0, 1, **kwargs)])
        assert mutator.graph is graph
        mutator.apply_ops([close(1)])
        mutator.apply_ops([reopen(1)])
        assert mutator.graph.edge(0, 1) == (1.0, 1.0)  # no override was recorded

    def test_update_edge_cost_accepts_the_boundary_weights(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([recost(0, 1, objective=MIN_EDGE_WEIGHT, budget=MAX_EDGE_WEIGHT)])
        assert mutator.graph.edge(0, 1) == (1e-9, 1e9)
        mutator.apply_ops([recost(0, 1, objective=MAX_EDGE_WEIGHT, budget=MIN_EDGE_WEIGHT)])
        assert mutator.graph.edge(0, 1) == (1e9, 1e-9)

    def test_lookups_never_build_the_edge_map_of_a_fresh_graph(self):
        """One update asks about one edge (a close about one column) of a
        graph the next update replaces: an |E|-entry map is never built."""
        mutator = GraphMutator(small_graph())
        for _round in range(3):
            mutator.apply_ops([recost(0, 1, objective=2.0)])
            assert mutator.graph._edge_lookup is None
            mutator.apply_ops([close(2)])
            assert mutator.graph._edge_lookup is None
            mutator.apply_ops([reopen(2)])
            assert mutator.graph._edge_lookup is None

    def test_close_strips_edges_and_keywords(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([close(2)])
        graph = mutator.graph
        assert mutator.closed_nodes == frozenset({2})
        assert not graph.out_edges(2)
        assert not graph.has_edge(0, 2)
        assert not graph.has_edge(1, 2)
        assert not graph.node_keyword_strings(2)

    def test_double_close_and_open_of_open_are_rejected(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([close(2)])
        with pytest.raises(MutationError, match="already closed"):
            mutator.apply_ops([close(2)])
        with pytest.raises(MutationError, match="not closed"):
            mutator.apply_ops([reopen(0)])

    def test_closed_node_refuses_edge_and_keyword_updates(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([close(2)])
        with pytest.raises(MutationError, match="closed"):
            mutator.apply_ops([recost(0, 2, objective=1.0)])
        with pytest.raises(MutationError, match="closed"):
            mutator.apply_ops([relabel(2, ["pub"])])

    def test_reopen_restores_latest_edges_and_keywords(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([recost(0, 2, objective=8.0)])
        mutator.apply_ops([relabel(2, ["zoo"])])
        mutator.apply_ops([close(2)])
        mutator.apply_ops([reopen(2)])
        graph = mutator.graph
        # The explicit overrides survive the closure, not the base state.
        assert graph.edge(0, 2) == (8.0, 3.0)
        assert graph.edge(1, 2) == (2.0, 1.5)
        assert set(graph.node_keyword_strings(2)) == {"zoo"}

    def test_reopen_skips_edges_toward_closed_neighbours(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([close(1)])
        mutator.apply_ops([close(2)])
        mutator.apply_ops([reopen(2)])
        graph = mutator.graph
        assert not graph.has_edge(1, 2)  # neighbour 1 is still closed
        assert graph.has_edge(0, 2)
        assert graph.has_edge(2, 3)
        mutator.apply_ops([reopen(1)])
        assert mutator.graph.has_edge(1, 2)

    def test_close_open_round_trip_restores_base_world(self):
        graph = small_graph()
        mutator = GraphMutator(graph)
        for node in (1, 3):
            mutator.apply_ops([close(node)])
        for node in (3, 1):
            mutator.apply_ops([reopen(node)])
        assert edge_map(mutator.graph) == edge_map(graph)
        assert keyword_map(mutator.graph) == keyword_map(graph)

    def test_update_keywords_normalises_and_validates(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([relabel(0, ["zoo", "pub", "zoo"])])
        assert set(mutator.graph.node_keyword_strings(0)) == {"pub", "zoo"}
        with pytest.raises(MutationError, match="non-empty strings"):
            mutator.apply_ops([relabel(0, [""])])

    def test_an_updated_edge_keeps_its_place_and_a_recreated_one_is_appended(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([recost(0, 1, objective=9.0)])
        assert mutator.graph.out_edges(0) == ((1, 9.0, 1.0), (2, 3.0, 3.0))
        mutator.apply_ops([close(1)])
        mutator.apply_ops([reopen(1)])
        assert mutator.graph.out_edges(0) == ((2, 3.0, 3.0), (1, 9.0, 1.0))

    def test_keyword_table_is_shared_and_append_only(self):
        graph = small_graph()
        mutator = GraphMutator(graph)
        mutator.apply_ops([relabel(3, ["zoo"])])
        assert mutator.graph.keyword_table is graph.keyword_table
        assert "zoo" in set(graph.keyword_table.words)

    def test_apply_ops_dispatches_and_rejects_unknown(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([{"op": "update_edge_cost", "u": 0, "v": 1, "objective": 3.0}])
        assert mutator.graph.edge(0, 1) == (3.0, 1.0)
        with pytest.raises(MutationError, match="unknown mutation op"):
            mutator.apply_ops([{"op": "grow_node"}])

    def test_an_integer_weight_is_a_weight(self):
        """The wire's number rule: a JSON integer is accepted, as a float."""
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([recost(0, 1, objective=4, budget=2)])
        assert mutator.graph.out_edges(0)[0] == (1, 4.0, 2.0)
        assert all(type(weight) is float for weight in mutator.graph.edge(0, 1))


class TestApplyOps:
    OPS = [
        {"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.5},
        {"op": "close_node", "node": 2},
        {"op": "update_keywords", "node": 3, "keywords": ["park"]},
        {"op": "open_node", "node": 2},
    ]

    def test_a_batch_equals_its_ops_applied_one_call_at_a_time(self):
        """Adjacency order included: the batch drops and re-creates the
        edges of node 2, which come back appended to their rows."""
        graph = small_graph()
        batched, stepped = GraphMutator(graph), GraphMutator(graph)
        batched.apply_ops(self.OPS)
        for op in self.OPS:
            stepped.apply_ops([op])
        assert_same_graph(batched.graph, stepped.graph)
        assert batched.closed_nodes == stepped.closed_nodes == frozenset()
        assert batched.graph.out_edges(0) == ((1, 2.5, 1.0), (2, 3.0, 3.0))
        assert batched.graph.out_edges(1) == ((2, 2.0, 1.5),)

    def test_the_delta_names_what_the_batch_changed(self):
        mutator = GraphMutator(small_graph())
        assert mutator.apply_ops(self.OPS) == GraphDelta(
            edges=((0, 1), (0, 2), (1, 2), (2, 3)),
            keywords=((2, ("cafe", "pub")), (3, ("park",))),
        )
        assert mutator.apply_ops([relabel(0, ["zoo"])]) == GraphDelta(keywords=((0, ("zoo",)),))

    def test_an_empty_batch_is_refused(self):
        mutator = GraphMutator(small_graph())
        graph = mutator.graph
        with pytest.raises(MutationError, match="at least one op"):
            mutator.apply_ops([])
        assert mutator.graph is graph

    def test_error_mid_sequence_restores_the_mutator(self):
        """All or nothing: a refused batch leaves graph, closure set and
        both override maps exactly as it found them."""
        mutator = GraphMutator(small_graph())
        mutator.apply_ops([recost(0, 1, objective=4.0)])
        mutator.apply_ops([relabel(3, ["park"])])
        mutator.apply_ops([close(3)])
        graph = mutator.graph
        ops = [
            {"op": "update_edge_cost", "u": 0, "v": 1, "objective": 9.0},
            {"op": "update_keywords", "node": 0, "keywords": ["zoo"]},
            {"op": "open_node", "node": 3},
            {"op": "close_node", "node": 1},
            {"op": "close_node", "node": 1},  # invalid: already closed
        ]
        with pytest.raises(MutationError, match="already closed"):
            mutator.apply_ops(ops)
        assert mutator.graph is graph
        assert mutator.closed_nodes == frozenset({3})
        # The overrides the batch wrote are gone too: a re-open restores
        # the pre-batch cost and keywords, not the refused ones.
        mutator.apply_ops([reopen(3)])
        assert mutator.graph.edge(0, 1) == (4.0, 1.0)
        assert set(mutator.graph.node_keyword_strings(0)) == {"pub"}
        assert set(mutator.graph.node_keyword_strings(3)) == {"park"}
        mutator.apply_ops([close(1)])
        mutator.apply_ops([reopen(1)])
        assert mutator.graph.edge(0, 1) == (4.0, 1.0)
