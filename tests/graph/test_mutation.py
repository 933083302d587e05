"""Unit tests for the graph-mutation layer (deltas + mutator).

The contract under test (see ``repro.graph.mutation``):

* resolution is **strict** — closing a closed node, re-costing a
  missing edge, non-positive weights are all :class:`MutationError`;
* application is **lenient and idempotent** — re-applying a delta is a
  no-op, so exactly-once delivery is never required;
* deltas are **absolute** — merging is order-respecting last-write-wins,
  and a merged delta applied once equals the op sequence applied one at
  a time.
"""

from __future__ import annotations

import pickle

import pytest

from repro.graph.builder import GraphBuilder
from repro.graph.mutation import (
    MAX_EDGE_WEIGHT,
    MIN_EDGE_WEIGHT,
    GraphDelta,
    GraphMutator,
    MutationError,
    apply_graph_delta,
    resolve_ops,
)


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
    return {
        u: tuple(sorted(graph.node_keyword_strings(u)))
        for u in range(graph.num_nodes)
    }


class TestGraphDelta:
    def test_empty_and_structural_flags(self):
        assert GraphDelta().is_empty
        assert not GraphDelta().structural
        assert GraphDelta(set_edges=((0, 1, 1.0, 1.0),)).structural
        assert GraphDelta(drop_edges=((0, 1),)).structural
        assert not GraphDelta(set_keywords=((0, ("pub",)),)).structural

    def test_touched_nodes_covers_all_anchors(self):
        delta = GraphDelta(
            set_edges=((0, 1, 1.0, 1.0),),
            drop_edges=((2, 3),),
            set_keywords=((1, ("pub",)),),
        )
        assert delta.touched_nodes() == frozenset({0, 1, 2, 3})

    def test_merge_is_last_write_wins(self):
        first = GraphDelta(
            set_edges=((0, 1, 1.0, 1.0), (1, 2, 2.0, 2.0)),
            set_keywords=((0, ("pub",)),),
        )
        second = GraphDelta(
            drop_edges=((0, 1),),
            set_edges=((1, 2, 5.0, 5.0),),
            set_keywords=((0, ()),),
        )
        merged = first.merge(second)
        assert merged.drop_edges == ((0, 1),)
        assert merged.set_edges == ((1, 2, 5.0, 5.0),)
        assert merged.set_keywords == ((0, ()),)
        # And the other order resurrects the edge instead.
        reversed_merge = second.merge(first)
        assert (0, 1, 1.0, 1.0) in reversed_merge.set_edges
        assert reversed_merge.drop_edges == ()

    def test_merged_delta_equals_sequential_application(self):
        graph = small_graph()
        first = GraphDelta(set_edges=((0, 1, 9.0, 9.0),), drop_edges=((0, 2),))
        second = GraphDelta(
            set_edges=((0, 2, 1.0, 1.0),), set_keywords=((3, ("park",)),)
        )
        sequential = apply_graph_delta(apply_graph_delta(graph, first), second)
        merged = apply_graph_delta(graph, first.merge(second))
        assert edge_map(sequential) == edge_map(merged)
        assert keyword_map(sequential) == keyword_map(merged)

    def test_delta_round_trips_through_pickle(self):
        delta = GraphDelta(
            set_edges=((0, 1, 1.5, 2.0),),
            drop_edges=((2, 3),),
            set_keywords=((1, ("mall", "pub")),),
        )
        assert pickle.loads(pickle.dumps(delta)) == delta


class TestApplyGraphDelta:
    def test_application_is_idempotent(self):
        graph = small_graph()
        delta = GraphDelta(
            set_edges=((0, 1, 7.0, 7.0),),
            drop_edges=((1, 2),),
            set_keywords=((0, ("imax",)),),
        )
        once = apply_graph_delta(graph, delta)
        twice = apply_graph_delta(once, delta)
        assert edge_map(once) == edge_map(twice)
        assert keyword_map(once) == keyword_map(twice)

    def test_empty_delta_returns_same_graph(self):
        graph = small_graph()
        assert apply_graph_delta(graph, GraphDelta()) is graph

    def test_updated_edge_keeps_adjacency_position(self):
        graph = small_graph()
        before = [v for v, _o, _b in graph.out_edges(0)]
        updated = apply_graph_delta(
            graph, GraphDelta(set_edges=((0, 2, 9.0, 9.0),))
        )
        assert [v for v, _o, _b in updated.out_edges(0)] == before

    def test_out_of_range_node_is_rejected(self):
        graph = small_graph()
        with pytest.raises(MutationError, match="outside the graph"):
            apply_graph_delta(graph, GraphDelta(drop_edges=((0, 99),)))

    def test_keyword_table_is_shared_and_append_only(self):
        graph = small_graph()
        updated = apply_graph_delta(
            graph, GraphDelta(set_keywords=((3, ("zoo",)),))
        )
        assert updated.keyword_table is graph.keyword_table
        assert "zoo" in set(graph.keyword_table.words)


class TestInducedDelta:
    def test_slice_keeps_in_set_entries_in_order_and_relabels(self):
        delta = GraphDelta(
            set_edges=((5, 7, 1.0, 2.0), (5, 6, 3.0, 4.0), (7, 5, 5.0, 6.0)),
            drop_edges=((7, 9), (9, 5), (5, 7)),
            set_keywords=((6, ("pub",)), (7, ())),
        )
        local = delta.induced({5: 0, 7: 1, 9: 2})
        assert local.set_edges == ((0, 1, 1.0, 2.0), (1, 0, 5.0, 6.0))
        assert local.drop_edges == ((1, 2), (2, 0), (0, 1))
        assert local.set_keywords == ((1, ()),)
        assert delta.induced({}).is_empty

    def test_world_cell_subgraphs_track_the_induced_subgraph(self):
        """Over the seeded 50-op sequence, every cell subgraph the world
        derives from a delta is row for row the subgraph the new graph
        induces on that cell (adjacency order, keywords, bounds, CSR)."""
        from repro.world import MutableWorld
        from tests.properties.test_cow_graph_properties import assert_same_graph
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

        update = world.update_edge_cost(u, v, objective=2 * objective, budget=budget)

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

        update = world.update_edge_cost(u, v, objective=2 * objective, budget=2 * budget)

        for kind, (cell_rows, overlay_rows) in update.swept_rows.items():
            assert 0 < cell_rows == users[kind] < len(state.to_global), kind
            assert overlay_rows < len(world.partition.border_nodes), kind
        assert_repair_equals_rebuild(world)


class TestGraphMutator:
    def test_update_edge_cost_partial_weights_persist(self):
        mutator = GraphMutator(small_graph())
        mutator.update_edge_cost(0, 1, objective=4.0)
        assert mutator.graph.edge(0, 1) == (4.0, 1.0)
        mutator.update_edge_cost(0, 1, budget=6.0)
        assert mutator.graph.edge(0, 1) == (4.0, 6.0)

    def test_update_edge_cost_validation(self):
        mutator = GraphMutator(small_graph())
        with pytest.raises(MutationError, match="no edge"):
            mutator.update_edge_cost(1, 0, objective=2.0)
        with pytest.raises(MutationError, match="needs objective"):
            mutator.update_edge_cost(0, 1)
        with pytest.raises(MutationError, match="finite and > 0"):
            mutator.update_edge_cost(0, 1, objective=0.0)
        with pytest.raises(MutationError, match="finite and > 0"):
            mutator.update_edge_cost(0, 1, budget=float("inf"))
        with pytest.raises(MutationError, match="outside the graph"):
            mutator.update_edge_cost(0, 99, objective=1.0)

    @pytest.mark.parametrize("weight", [5e-324, 1e-300, 1e-10, 1.1e9, 1e308])
    def test_update_edge_cost_refuses_unscalable_weights(self, weight):
        """theta = eps * o_min * b_min / Delta must stay representable:
        an out-of-range weight is refused, named bound and all, and
        nothing is applied or remembered."""
        mutator = GraphMutator(small_graph())
        graph = mutator.graph
        for kwargs in ({"objective": weight}, {"budget": weight}, {"objective": weight, "budget": weight}):
            with pytest.raises(MutationError, match=r"must lie in \[1e-09, 1000000000\.0\]"):
                mutator.update_edge_cost(0, 1, **kwargs)
        assert mutator.graph is graph
        mutator.close_node(1)
        mutator.open_node(1)
        assert mutator.graph.edge(0, 1) == (1.0, 1.0)  # no override was recorded

    def test_update_edge_cost_accepts_the_boundary_weights(self):
        mutator = GraphMutator(small_graph())
        mutator.update_edge_cost(0, 1, objective=MIN_EDGE_WEIGHT, budget=MAX_EDGE_WEIGHT)
        assert mutator.graph.edge(0, 1) == (1e-9, 1e9)
        mutator.update_edge_cost(0, 1, objective=MAX_EDGE_WEIGHT, budget=MIN_EDGE_WEIGHT)
        assert mutator.graph.edge(0, 1) == (1e9, 1e-9)

    def test_lookups_never_build_the_edge_map_of_a_fresh_graph(self):
        """One update asks about one edge (a close about one column) of a
        graph the next update replaces: an |E|-entry map is never built."""
        mutator = GraphMutator(small_graph())
        for _round in range(3):
            mutator.update_edge_cost(0, 1, objective=2.0)
            assert mutator.graph._edge_lookup is None
            mutator.close_node(2)
            assert mutator.graph._edge_lookup is None
            mutator.open_node(2)
            assert mutator.graph._edge_lookup is None

    def test_close_strips_edges_and_keywords(self):
        mutator = GraphMutator(small_graph())
        mutator.close_node(2)
        graph = mutator.graph
        assert mutator.closed_nodes == frozenset({2})
        assert not graph.out_edges(2)
        assert not graph.has_edge(0, 2)
        assert not graph.has_edge(1, 2)
        assert not graph.node_keyword_strings(2)

    def test_double_close_and_open_of_open_are_rejected(self):
        mutator = GraphMutator(small_graph())
        mutator.close_node(2)
        with pytest.raises(MutationError, match="already closed"):
            mutator.close_node(2)
        with pytest.raises(MutationError, match="not closed"):
            mutator.open_node(0)

    def test_closed_node_refuses_edge_and_keyword_updates(self):
        mutator = GraphMutator(small_graph())
        mutator.close_node(2)
        with pytest.raises(MutationError, match="closed"):
            mutator.update_edge_cost(0, 2, objective=1.0)
        with pytest.raises(MutationError, match="closed"):
            mutator.update_keywords(2, ["pub"])

    def test_reopen_restores_latest_edges_and_keywords(self):
        mutator = GraphMutator(small_graph())
        mutator.update_edge_cost(0, 2, objective=8.0)
        mutator.update_keywords(2, ["zoo"])
        mutator.close_node(2)
        mutator.open_node(2)
        graph = mutator.graph
        # The explicit overrides survive the closure, not the base state.
        assert graph.edge(0, 2) == (8.0, 3.0)
        assert graph.edge(1, 2) == (2.0, 1.5)
        assert set(graph.node_keyword_strings(2)) == {"zoo"}

    def test_reopen_skips_edges_toward_closed_neighbours(self):
        mutator = GraphMutator(small_graph())
        mutator.close_node(1)
        mutator.close_node(2)
        mutator.open_node(2)
        graph = mutator.graph
        assert not graph.has_edge(1, 2)  # neighbour 1 is still closed
        assert graph.has_edge(0, 2)
        assert graph.has_edge(2, 3)
        mutator.open_node(1)
        assert mutator.graph.has_edge(1, 2)

    def test_close_open_round_trip_restores_base_world(self):
        graph = small_graph()
        mutator = GraphMutator(graph)
        for node in (1, 3):
            mutator.close_node(node)
        for node in (3, 1):
            mutator.open_node(node)
        assert edge_map(mutator.graph) == edge_map(graph)
        assert keyword_map(mutator.graph) == keyword_map(graph)

    def test_update_keywords_normalises_and_validates(self):
        mutator = GraphMutator(small_graph())
        mutator.update_keywords(0, ["zoo", "pub", "zoo"])
        assert set(mutator.graph.node_keyword_strings(0)) == {"pub", "zoo"}
        with pytest.raises(MutationError, match="non-empty strings"):
            mutator.update_keywords(0, [""])

    def test_apply_op_dispatches_and_rejects_unknown(self):
        mutator = GraphMutator(small_graph())
        mutator.apply_op({"op": "update_edge_cost", "u": 0, "v": 1, "objective": 3.0})
        assert mutator.graph.edge(0, 1) == (3.0, 1.0)
        with pytest.raises(MutationError, match="unknown mutation op"):
            mutator.apply_op({"op": "grow_node"})


class TestResolveOps:
    def test_merged_delta_reproduces_the_mutator_graph(self):
        graph = small_graph()
        ops = [
            {"op": "update_edge_cost", "u": 0, "v": 1, "objective": 2.5},
            {"op": "close_node", "node": 2},
            {"op": "update_keywords", "node": 3, "keywords": ["park"]},
            {"op": "open_node", "node": 2},
        ]
        mutator = GraphMutator(graph)
        delta = resolve_ops(mutator, ops)
        replayed = apply_graph_delta(graph, delta)
        assert edge_map(replayed) == edge_map(mutator.graph)
        assert keyword_map(replayed) == keyword_map(mutator.graph)

    def test_error_mid_sequence_restores_the_mutator(self):
        """All or nothing: a refused batch leaves graph, closure set and
        both override maps exactly as it found them."""
        mutator = GraphMutator(small_graph())
        mutator.update_edge_cost(0, 1, objective=4.0)
        mutator.update_keywords(3, ["park"])
        mutator.close_node(3)
        graph = mutator.graph
        ops = [
            {"op": "update_edge_cost", "u": 0, "v": 1, "objective": 9.0},
            {"op": "update_keywords", "node": 0, "keywords": ["zoo"]},
            {"op": "open_node", "node": 3},
            {"op": "close_node", "node": 1},
            {"op": "close_node", "node": 1},  # invalid: already closed
        ]
        with pytest.raises(MutationError, match="already closed"):
            resolve_ops(mutator, ops)
        assert mutator.graph is graph
        assert mutator.closed_nodes == frozenset({3})
        # The overrides the batch wrote are gone too: a re-open restores
        # the pre-batch cost and keywords, not the refused ones.
        mutator.open_node(3)
        assert mutator.graph.edge(0, 1) == (4.0, 1.0)
        assert set(mutator.graph.node_keyword_strings(0)) == {"pub"}
        assert set(mutator.graph.node_keyword_strings(3)) == {"park"}
        mutator.close_node(1)
        mutator.open_node(1)
        assert mutator.graph.edge(0, 1) == (4.0, 1.0)
