"""Property-based tests for partitioned pre-processing."""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.graph.builder import GraphBuilder
from repro.prep.partition import GraphPartition, PartitionedCostTables, partition_graph
from repro.prep.tables import CostTables

from tests.strategies import small_graphs

SLOW = settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])


class TestPartitionInvariants:
    @SLOW
    @given(small_graphs(min_nodes=4, max_nodes=7), st.integers(2, 3))
    def test_cells_partition_the_node_set(self, graph, cells):
        partition = partition_graph(graph, cells)
        seen = sorted(v for cell in partition.cells for v in cell)
        assert seen == list(range(graph.num_nodes))

    @SLOW
    @given(small_graphs(min_nodes=4, max_nodes=7), st.integers(2, 3))
    def test_assembled_scores_are_sound_upper_bounds(self, graph, cells):
        """Partitioned scores never undercut the flat optimum, and agree
        exactly on reachability within assembled routes."""
        partitioned = PartitionedCostTables.from_graph(graph, num_cells=cells, seed=0)
        flat = CostTables.from_graph(graph, predecessors=False)
        n = graph.num_nodes
        for t in range(n):
            for kind, column, reference in (
                ("tau", partitioned.os_tau_col(t), flat.os_tau_col(t)),
                ("sigma", partitioned.bs_sigma_col(t), flat.bs_sigma_col(t)),
            ):
                finite = np.isfinite(reference)
                assert np.all(column[finite] >= reference[finite] - 1e-9), kind
                # Anything the partitioned tables claim reachable must be.
                assert np.all(np.isfinite(column) <= finite | np.isinf(column))


# ----------------------------------------------------------------------
# restricted row reads
# ----------------------------------------------------------------------
def _rough_graph(seed: int, n: int, density: float):
    """A random digraph whose float weights do not add exactly (so the
    order of additions shows) and whose sparsity leaves pairs unreachable."""
    rng = np.random.default_rng(seed)
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node(keywords=())
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    for u, v in pairs or [(0, 1)]:  # the builder refuses an edgeless graph
        builder.add_edge(u, v, float(rng.uniform(0.1, 9.0)), float(rng.uniform(0.1, 9.0)))
    return builder.build()


def _partition_of(graph, cell_of) -> GraphPartition:
    """Any node-to-cell assignment as a partition (border = crossing edges)."""
    cell_of = np.asarray(cell_of, dtype=np.int64)
    crossing = {
        node
        for edge in graph.iter_edges()
        if cell_of[edge.u] != cell_of[edge.v]
        for node in (edge.u, edge.v)
    }
    border_nodes = np.array(sorted(crossing), dtype=np.int64)
    border_index = np.full(graph.num_nodes, -1, dtype=np.int64)
    border_index[border_nodes] = np.arange(len(border_nodes))
    return GraphPartition(
        cell_of=cell_of,
        cells=tuple(np.flatnonzero(cell_of == cell) for cell in range(int(cell_of.max()) + 1)),
        border_nodes=border_nodes,
        border_index=border_index,
    )


@st.composite
def partitioned_instances(draw):
    """``(graph, partitioned tables)`` over 1-6 cells.

    Half the draws use :func:`partition_graph`; the other half assign
    nodes to cells at random, which produces what a BFS partition rarely
    does: cells without exits, cells that are not connected, one-node
    cells.  The assembly is exact for any assignment.
    """
    n = draw(st.integers(2, 14))
    graph = _rough_graph(draw(st.integers(0, 2**32 - 1)), n, draw(st.sampled_from((0.1, 0.2, 0.4))))
    cells = draw(st.integers(1, min(6, n)))
    if draw(st.booleans()):
        partition = partition_graph(graph, cells, seed=draw(st.integers(0, 3)))
    else:
        extra = draw(st.lists(st.integers(0, cells - 1), min_size=n - cells, max_size=n - cells))
        partition = _partition_of(graph, draw(st.permutations(list(range(cells)) + extra)))
    return graph, PartitionedCostTables.from_graph(graph, partition=partition)


#: reader kind -> (row method of the primary score, of the secondary score)
ROWS = {"tau": ("os_tau_row", "bs_tau_row"), "sigma": ("bs_sigma_row", "os_sigma_row")}


def assert_reads_equal_rows(tables, nodes) -> None:
    """``row_reader(nodes, kind)`` == ``*_row(i)[nodes]``, bit for bit."""
    nodes = np.asarray(nodes, dtype=np.int64)
    for kind, (primary_row, secondary_row) in ROWS.items():
        reader = tables.row_reader(nodes, kind)
        for i in range(tables.num_nodes):
            np.testing.assert_array_equal(
                reader.primary(i), getattr(tables, primary_row)(i)[nodes], err_msg=f"{kind} {i}"
            )
            secondary = [reader.secondary_at(i, position) for position in range(len(nodes))]
            np.testing.assert_array_equal(
                secondary, getattr(tables, secondary_row)(i)[nodes], err_msg=f"{kind} {i}"
            )


class TestRestrictedRowReads:
    """The search's read path returns the floats the full rows hold."""

    @SLOW
    @given(partitioned_instances(), st.data())
    def test_partitioned_reader_equals_row_slices(self, instance, data):
        _graph, tables = instance
        n = tables.num_nodes
        # Every source (border and interior alike) against: a drawn set
        # (any order, repeats allowed), the empty set, every node (spans
        # all cells, contains the source and whatever is unreachable from
        # it), and one whole cell.
        assert_reads_equal_rows(tables, data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
        assert_reads_equal_rows(tables, [])
        assert_reads_equal_rows(tables, np.arange(n))
        cell = data.draw(st.integers(0, tables.partition.num_cells - 1))
        assert_reads_equal_rows(tables, tables.partition.cells[cell])

    @SLOW
    @given(partitioned_instances())
    def test_unreachable_entries_read_inf_in_both_scores(self, instance):
        graph, tables = instance
        flat = CostTables.from_graph(graph, predecessors=False)
        nodes = np.arange(tables.num_nodes)
        for kind in ROWS:
            reader = tables.row_reader(nodes, kind)
            for i in nodes:
                unreachable = ~np.isfinite(flat.os_tau[i])
                assert np.array_equal(np.isinf(reader.primary(i)), unreachable)
                for j in np.flatnonzero(unreachable):
                    assert reader.secondary_at(i, j) == np.inf

    @SLOW
    @given(partitioned_instances())
    def test_secondary_reads_need_no_earlier_primary_read(self, instance):
        """One column's secondary is assembled on demand: asked first, on
        a reader that has read nothing, it is the float the row holds."""
        _graph, tables = instance
        nodes = np.arange(tables.num_nodes)[::-1]
        for kind, (_primary_row, secondary_row) in ROWS.items():
            for i in range(tables.num_nodes):
                reader = tables.row_reader(nodes, kind)
                secondary = [reader.secondary_at(i, position) for position in range(len(nodes))]
                np.testing.assert_array_equal(secondary, getattr(tables, secondary_row)(i)[nodes])

    def test_primary_tie_inside_the_source_cell(self):
        """The in-cell path and a detour through the other cell tie on the
        primary: the smaller secondary wins, whichever path holds it."""
        builder = GraphBuilder()
        for _ in range(5):
            builder.add_node(keywords=())
        # Cell {0, 1, 3, 4} with borders 0 and 1; node 2 is the other cell.
        # tau 3 -> 4: OS 4.0 directly (BS 9.0) and via 0, 2, 1 (BS 4.0).
        # sigma 4 -> 3: BS 4.0 directly (OS 3.0) and via 1, 2, 0 (OS 6.0).
        unit = ((3, 0), (0, 2), (2, 1), (1, 4), (4, 1), (0, 3))
        for u, v, objective, budget in (
            (3, 4, 4.0, 9.0),
            (4, 3, 3.0, 4.0),
            (1, 2, 2.0, 1.0),
            (2, 0, 2.0, 1.0),
            *((u, v, 1.0, 1.0) for u, v in unit),
        ):
            builder.add_edge(u, v, objective, budget)
        graph = builder.build()
        partition = _partition_of(graph, [0, 0, 1, 0, 0])
        tables = PartitionedCostTables.from_graph(graph, partition=partition)
        nodes = np.arange(5)
        for kind, source, position, secondary in (("tau", 3, 4, 4.0), ("sigma", 4, 3, 3.0)):
            reader = tables.row_reader(nodes, kind)
            assert reader.secondary_at(source, position) == secondary  # before any primary read
            assert reader.primary(source)[position] == 4.0
        assert_reads_equal_rows(tables, nodes)

    @SLOW
    @given(small_graphs(min_nodes=2, max_nodes=7), st.data())
    def test_flat_reader_equals_row_slices(self, graph, data):
        tables = CostTables.from_graph(graph, predecessors=False)
        n = graph.num_nodes
        assert_reads_equal_rows(tables, data.draw(st.lists(st.integers(0, n - 1), max_size=n)))
        assert_reads_equal_rows(tables, [])

    @SLOW
    @given(partitioned_instances())
    def test_scalar_lookups_equal_column_entries(self, instance):
        """The other association family: ``_assemble_pair`` mirrors ``_columns``."""
        _graph, tables = instance
        for j in range(tables.num_nodes):
            for scalar, column in (
                (tables.os_tau, tables.os_tau_col(j)),
                (tables.bs_tau, tables.bs_tau_col(j)),
                (tables.bs_sigma, tables.bs_sigma_col(j)),
                (tables.os_sigma, tables.os_sigma_col(j)),
            ):
                got = [scalar(i, j) for i in range(tables.num_nodes)]
                np.testing.assert_array_equal(got, column)
