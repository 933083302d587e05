"""Row repair == rebuild, bit for bit, for every table an update touches.

``MutableWorld`` repairs a cell's tables and the border tier by sweeping
again only the source rows an edge change can move
(:func:`repro.prep.dijkstra.repair_two_criteria`) and copying the rest.
The claim under test is exact: after any batch of edge re-costs,
closures and re-openings, all six arrays of every cell's tables and all
six border arrays — primaries, secondaries and predecessors — equal
those of :meth:`MutableWorld.rebuilt`.  Float-weight digraphs, where
distances rarely tie, exercise the copied rows; weights drawn from a
small discrete pool, where ties are the norm, exercise the always
re-swept tie rows.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.graph.generators import grid_graph
from repro.graph.mutation import GraphMutator
from repro.prep.partition import partition_graph
from repro.world import MutableWorld

from tests.properties.test_partition_properties import _partition_of

SLOW = settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])

CELL_ARRAYS = ("os_tau", "bs_tau", "os_sigma", "bs_sigma", "pred_tau", "pred_sigma")
BORDER_ARRAYS = tuple(f"border_{name}" for name in CELL_ARRAYS)
#: The discrete pool of ``tests/service/test_differential.py``.
POOL = (1.0, 1.5, 2.0, 3.0)


def assert_repair_equals_rebuild(world: MutableWorld) -> None:
    """All twelve table arrays of *world* equal a from-scratch rebuild's."""
    fresh = world.rebuilt()
    for cell, (state, rebuilt) in enumerate(zip(world.cells, fresh.cells)):
        for name in CELL_ARRAYS:
            np.testing.assert_array_equal(
                getattr(state.tables, name),
                getattr(rebuilt.tables, name),
                err_msg=f"cell {cell} {name}",
            )
    for name in BORDER_ARRAYS:
        np.testing.assert_array_equal(
            getattr(world.tables, name), getattr(fresh.tables, name), err_msg=name
        )


def _table_arrays(world: MutableWorld) -> list[np.ndarray]:
    arrays = [getattr(state.tables, name) for state in world.cells for name in CELL_ARRAYS]
    return arrays + [getattr(world.tables, name) for name in BORDER_ARRAYS]


def _digraph(seed: int, n: int, density: float, discrete: bool):
    """A random digraph: float weights, or weights from the discrete pool."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node(keywords=())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    for u, v in pairs or [(0, 1)]:
        if discrete:
            builder.add_edge(u, v, float(rng.choice(POOL)), float(rng.choice(POOL)))
        else:
            builder.add_edge(u, v, float(rng.uniform(0.1, 9.0)), float(rng.uniform(0.1, 9.0)))
    return builder.build()


def _graph_of(n: int, edges):
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node(keywords=())
    for u, v, objective, budget in edges:
        builder.add_edge(u, v, objective, budget)
    return builder.build()


@st.composite
def worlds(draw):
    """A ``MutableWorld`` over 1-6 cells of a float or discrete digraph.

    Half the draws assign nodes to cells at random (cells without border
    nodes, disconnected cells, one-node cells), half use the world's own
    partitioner.
    """
    n = draw(st.integers(2, 14))
    graph = _digraph(
        draw(st.integers(0, 2**32 - 1)),
        n,
        draw(st.sampled_from((0.15, 0.3, 0.5))),
        discrete=draw(st.booleans()),
    )
    cells = draw(st.integers(1, min(6, n)))
    if draw(st.booleans()):
        partition = partition_graph(graph, cells, seed=draw(st.integers(0, 3)))
    else:
        extra = draw(st.lists(st.integers(0, cells - 1), min_size=n - cells, max_size=n - cells))
        partition = _partition_of(graph, draw(st.permutations(list(range(cells)) + extra)))
    return MutableWorld(graph, partition=partition)


def _draw_op(data, mutator: GraphMutator, cell_of: np.ndarray) -> dict:
    """One op valid against *mutator*'s current state."""
    graph, closed = mutator.graph, mutator.closed_nodes
    edges = [(u, v, o, b) for u in range(graph.num_nodes) for v, o, b in graph.out_edges(u)]
    cut = [edge for edge in edges if cell_of[edge[0]] != cell_of[edge[1]]]
    kinds = ["close_node"] if len(closed) < graph.num_nodes else []
    if edges:
        kinds += ["recost_up", "recost_down", "budget_only"]
    if cut:
        kinds.append("recost_cut")
    if closed:
        kinds.append("open_node")
    kind = data.draw(st.sampled_from(kinds))
    if kind == "close_node":
        node = data.draw(st.sampled_from([v for v in range(graph.num_nodes) if v not in closed]))
        return {"op": "close_node", "node": node}
    if kind == "open_node":
        return {"op": "open_node", "node": data.draw(st.sampled_from(sorted(closed)))}
    u, v, objective, budget = data.draw(st.sampled_from(cut if kind == "recost_cut" else edges))
    # Binary factors keep a discrete graph's weights on a grid, so its
    # ties survive the re-cost; 1.0 re-costs an edge to what it was.
    factors = st.sampled_from((0.5, 1.0, 2.0))
    if kind == "budget_only":
        return {"op": "update_edge_cost", "u": u, "v": v, "budget": budget * data.draw(factors)}
    factor = {"recost_up": 2.0, "recost_down": 0.5}.get(kind)
    return {
        "op": "update_edge_cost",
        "u": u,
        "v": v,
        "objective": objective * (factor or data.draw(factors)),
        "budget": budget * data.draw(factors),
    }


class TestRepairEqualsRebuild:
    @SLOW
    @given(worlds(), st.data())
    def test_op_batches_repair_to_the_rebuilt_tables(self, world, data):
        mutator = GraphMutator(world.graph)
        cell_of = world.partition.cell_of
        for _batch in range(data.draw(st.integers(1, 4))):
            ops = []
            for _op in range(data.draw(st.integers(1, 4))):
                op = _draw_op(data, mutator, cell_of)
                mutator.apply_op(op)
                ops.append(op)
            before = _table_arrays(world)
            snapshot = [array.copy() for array in before]
            update = world.apply_ops(ops)
            assert_repair_equals_rebuild(world)
            # Rows are copied, never written in place: a reader holding
            # the previous tables keeps them whole.
            for array, copy in zip(before, snapshot):
                np.testing.assert_array_equal(array, copy)
            for kind, (cell_rows, overlay_rows) in update.swept_rows.items():
                assert 0 <= cell_rows <= sum(
                    len(world.partition.cells[c]) for c in update.repaired_cells
                ), kind
                assert 0 <= overlay_rows <= len(world.partition.border_nodes), kind


class TestNamedCases:
    def test_unit_weight_grid_ties_every_row_so_every_row_is_swept(self):
        world = MutableWorld(grid_graph(4, 6), num_cells=2)
        cell_of = world.partition.cell_of
        u, v = next(
            (u, v)
            for u in range(world.graph.num_nodes)
            for v, _o, _b in world.graph.out_edges(u)
            if cell_of[u] == cell_of[v]
        )
        update = world.update_edge_cost(u, v, objective=2.0)
        size = len(world.partition.cells[int(cell_of[u])])
        assert {kind: rows[0] for kind, rows in update.swept_rows.items()} == {
            "tau": size,
            "sigma": size,
        }
        assert_repair_equals_rebuild(world)

    def test_an_edge_on_no_shortest_path_sweeps_no_row(self):
        # Every row's distances are pairwise distinct, and 0 -> 2 is dearer
        # than 0 -> 1 -> 2 in both weights, before and after the re-costs.
        edges = [
            (0, 1, 1.0, 1.0),
            (1, 2, 1.25, 1.25),
            (0, 2, 10.0, 10.0),
            (2, 3, 1.5, 1.5),
            (3, 0, 2.0, 2.0),
        ]
        world = MutableWorld(_graph_of(4, edges), num_cells=1)
        for objective, budget in ((20.0, 20.0), (11.0, 3.0), (3.0, 11.0)):
            update = world.update_edge_cost(0, 2, objective=objective, budget=budget)
            assert update.repaired_cells == (0,)
            assert update.swept_rows == {"tau": (0, 0), "sigma": (0, 0)}
            assert_repair_equals_rebuild(world)

    def test_a_decrease_that_ties_the_stored_path_takes_over(self):
        # 0 -> 2 falls from 5.0 to 2.0, exactly the cost of 0 -> 1 -> 2: no
        # distance moves, but the sweep now reaches node 2 first from node
        # 0 and keeps that predecessor (and its secondary).
        world = MutableWorld(
            _graph_of(3, [(0, 1, 1.0, 1.0), (1, 2, 1.0, 1.0), (0, 2, 5.0, 7.0)]), num_cells=1
        )
        assert world.cells[0].tables.pred_tau[0, 2] == 1
        update = world.update_edge_cost(0, 2, objective=2.0)
        assert update.swept_rows["tau"] == (1, 0)
        assert world.cells[0].tables.pred_tau[0, 2] == 0
        assert world.cells[0].tables.bs_tau[0, 2] == 7.0
        assert_repair_equals_rebuild(world)

    def test_open_node_reconnects_an_unreachable_region(self):
        # 0 -> 1 -> 2 (node 2 the only way on) -> 3 -> 4, in two cells:
        # closing 2 leaves {3, 4} unreachable from {0, 1}; re-opening it
        # must re-sweep the rows that reach them again.
        edges = [
            (0, 1, 1.0, 2.5),
            (1, 0, 1.1, 2.25),
            (1, 2, 1.3, 0.7),
            (2, 3, 0.9, 1.6),
            (3, 4, 1.7, 0.45),
            (4, 3, 0.6, 1.2),
        ]
        graph = _graph_of(5, edges)
        world = MutableWorld(graph, partition=_partition_of(graph, [0, 0, 0, 1, 1]))
        world.close_node(2)
        assert_repair_equals_rebuild(world)
        assert np.isinf(world.tables.os_tau(0, 4))
        update = world.open_node(2)
        assert_repair_equals_rebuild(world)
        assert np.isfinite(world.tables.os_tau(0, 4))
        # Rows 0 and 1 reach node 2 again (in-cell); border 2 reaches 3.
        assert update.swept_rows["tau"][0] >= 2
        assert update.swept_rows["tau"][1] >= 1
