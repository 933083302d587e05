"""The inverted file of a ``MutableWorld`` follows its keyword updates.

A world holds one index, over the full graph, which the search binds
against.  Keyword updates, closures and re-openings rebuild it; edge
re-costs do not.  After any sequence of updates it must equal one built
from scratch over the current graph.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KOREngine
from repro.exceptions import ReproError
from repro.graph.generators import figure_1_graph, grid_graph
from repro.world import MutableWorld

from tests.index.test_inverted import assert_matches_scan
from tests.ops import close, recost, relabel, reopen

WORDS = ("pub", "mall", "cafe", "park")


def assert_indexes_current(world: MutableWorld) -> None:
    """The index equals a scan of the graph, and so does every cell
    subgraph's keyword sets (the cells' keywords follow the graph)."""
    graph = world.graph
    assert_matches_scan(world.index, graph)
    for state in world.cells:
        for local, node in enumerate(state.to_global.tolist()):
            assert state.subgraph.node_keywords(local) == graph.node_keywords(node)


def grid_world(num_cells: int) -> MutableWorld:
    keywords = {node: [WORDS[node % len(WORDS)]] for node in range(0, 16, 3)}
    return MutableWorld(grid_graph(4, 4, keywords=keywords), num_cells=num_cells, seed=0)


def cell_of(world: MutableWorld, node: int) -> int:
    return int(world.partition.cell_of[node])


class TestFlatWorld:
    @pytest.fixture()
    def world(self):
        return MutableWorld.from_engine(KOREngine(figure_1_graph()))

    def test_from_engine_adopts_the_engines_index(self):
        engine = KOREngine(figure_1_graph())
        assert MutableWorld.from_engine(engine).index is engine.index

    def test_keyword_update_moves_the_node_between_lists(self, world):
        table = world.graph.keyword_table
        update = world.apply_ops([relabel(2, ["t4"])])
        assert update.index_rebuilt
        assert world.index.postings(table.id_of("t2")).tolist() == [5, 7]
        assert world.index.postings(table.id_of("t4")).tolist() == [2, 4]
        assert_indexes_current(world)

    def test_a_new_word_gets_a_posting_list(self, world):
        world.apply_ops([relabel(6, ["t1", "harbour"])])
        assert world.index.postings(world.graph.keyword_table.id_of("harbour")).tolist() == [6]
        assert_indexes_current(world)

    def test_removing_the_only_carrier_empties_the_list(self, world):
        t5 = world.graph.keyword_table.id_of("t5")
        world.apply_ops([relabel(1, [])])
        assert world.index.postings(t5).tolist() == []
        assert world.index.document_frequency(t5) == 0
        assert len(world.index) == 4

    def test_edge_recost_keeps_the_index(self, world):
        before = world.index
        update = world.apply_ops([recost(0, 1, objective=2.0)])
        assert not update.index_rebuilt
        assert world.index is before

    def test_closing_a_node_drops_it_and_opening_restores_it(self, world):
        t2 = world.graph.keyword_table.id_of("t2")
        assert world.apply_ops([close(5)]).index_rebuilt
        assert world.index.postings(t2).tolist() == [2, 7]
        assert world.apply_ops([reopen(5)]).index_rebuilt
        assert world.index.postings(t2).tolist() == [2, 5, 7]
        assert_indexes_current(world)

    def test_a_refused_batch_keeps_the_index(self, world):
        before = world.index
        with pytest.raises(ReproError):
            world.apply_ops(
                [
                    {"op": "update_keywords", "node": 2, "keywords": ["t4"]},
                    {"op": "update_keywords", "node": 99, "keywords": ["t4"]},
                ]
            )
        assert world.index is before
        assert world.index.postings(world.graph.keyword_table.id_of("t2")).tolist() == [2, 5, 7]


class TestCellIndexes:
    def test_fresh_world_indexes_are_current(self):
        assert_indexes_current(grid_world(3))

    def test_keyword_update_refreshes_only_its_cell(self):
        world = grid_world(3)
        before = [state.subgraph for state in world.cells]
        node = 5
        update = world.apply_ops([relabel(node, ["imax"])])
        assert update.index_rebuilt
        assert update.refreshed_cells == (cell_of(world, node),)
        for state, old in zip(world.cells, before):
            assert (state.subgraph is old) == (state.cell != cell_of(world, node))
        assert_indexes_current(world)

    def test_edge_recost_rebuilds_no_index(self):
        world = grid_world(3)
        before = world.index
        update = world.apply_ops([recost(0, 1, objective=3.0)])
        assert not update.index_rebuilt
        assert world.index is before

    def test_one_batch_over_two_cells_refreshes_both(self):
        world = grid_world(3)
        first = 0
        second = next(v for v in range(16) if cell_of(world, v) != cell_of(world, first))
        update = world.apply_ops(
            [
                {"op": "update_keywords", "node": first, "keywords": ["imax"]},
                {"op": "update_keywords", "node": second, "keywords": ["imax", "pub"]},
            ]
        )
        assert update.epoch == 1
        assert set(update.refreshed_cells) == {cell_of(world, first), cell_of(world, second)}
        imax = world.graph.keyword_table.id_of("imax")
        assert world.index.postings(imax).tolist() == sorted([first, second])
        assert_indexes_current(world)

    def test_rebuilt_world_has_equal_indexes(self):
        world = grid_world(3)
        world.apply_ops([relabel(7, ["cafe", "imax"])])
        world.apply_ops([close(9)])
        fresh = world.rebuilt()
        for kid in range(len(world.graph.keyword_table)):
            assert world.index.postings(kid).tolist() == fresh.index.postings(kid).tolist()


@st.composite
def keyword_ops(draw):
    """A short sequence of keyword updates, closures and re-openings."""
    ops = []
    for _ in range(draw(st.integers(1, 6))):
        node = draw(st.integers(0, 15))
        kind = draw(st.sampled_from(("update_keywords", "close_node", "open_node")))
        if kind == "update_keywords":
            words = draw(st.lists(st.sampled_from(WORDS + ("imax",)), max_size=3, unique=True))
            ops.append({"op": kind, "node": node, "keywords": words})
        else:
            ops.append({"op": kind, "node": node})
    return ops


class TestUpdatesKeepIndexesCurrent:
    @settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(st.sampled_from((1, 2, 4)), keyword_ops())
    def test_any_sequence(self, num_cells, ops):
        world = grid_world(num_cells)
        for op in ops:
            try:
                world.apply_ops([op])
            except ReproError:
                continue  # e.g. closing a closed node: refused, nothing changes
            assert_indexes_current(world)
