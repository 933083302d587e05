"""Properties of a query's set-up: the values a label search reads per label.

A search reads ``OS(tau_{i,t})`` and ``BS(sigma_{i,t})`` through memoryviews
over the target's columns, Strategy 2's detour screens through memoryviews
over their minima, and each node's keyword mask from the binding's dense
mask list.  Every read must be the Python value the tables and the postings
define, bit for bit: on flat and on 2- and 3-cell partitioned tables, and
at every keyword count, the ``object`` masks from 64 keywords on included.
"""

import pickle
import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import KOREngine
from repro.core.label import Label, label_sort_key
from repro.core.query import KORQuery, QueryBinding
from repro.graph.builder import GraphBuilder
from repro.prep.partition import PartitionedCostTables

from tests.core.test_searchbase import make_context

SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

LAYOUTS = ("flat", "2-cell", "3-cell")


def bits_of(values) -> list[str]:
    """Each float's exact bits (``float.hex`` tells -0.0 from 0.0)."""
    return [value.hex() for value in values]


@pytest.fixture(scope="module")
def road_engines():
    from repro.datasets import RoadConfig, build_road_graph

    graph = build_road_graph(RoadConfig(num_nodes=120, seed=3))
    return {
        "flat": KOREngine(graph),
        "2-cell": KOREngine(graph, tables=PartitionedCostTables.from_graph(graph, num_cells=2)),
        "3-cell": KOREngine(graph, tables=PartitionedCostTables.from_graph(graph, num_cells=3)),
    }


class TestCompletionColumnReads:
    @pytest.mark.parametrize("layout", LAYOUTS)
    @SETTINGS
    @given(data=st.data())
    def test_every_read_is_the_tables_float(self, road_engines, layout, data):
        engine = road_engines[layout]
        graph, tables = engine.graph, engine.tables
        n = graph.num_nodes
        words = data.draw(
            st.lists(st.sampled_from(graph.keyword_table.words), min_size=1, max_size=3)
        )
        source = data.draw(st.integers(0, n - 1))
        target = data.draw(st.integers(0, n - 1))
        # Threshold 1: every present keyword counts as infrequent, so
        # Strategy 2 builds its detour screens.
        ctx = make_context(engine, KORQuery(source, target, words, 6.0), threshold=1.0)

        for view, column in (
            (ctx.os_tau_t_list, tables.os_tau_col(target)),
            (ctx.bs_sigma_t_list, tables.bs_sigma_col(target)),
        ):
            reads = [view[i] for i in range(n)]
            assert all(type(read) is float for read in reads)
            assert bits_of(reads) == bits_of(column.tolist())
            if layout != "flat":
                # The assembled column is read in place, not copied.
                assert np.shares_memory(view, column)

        assert ctx.strategy2_active
        rare = ctx.binding.nodes_with_bit[ctx._rare_bit]
        for screen, rows, to_t in (
            (ctx._rare_min_bs, tables.bs_sigma_cols(rare), tables.bs_sigma_col(target)[rare]),
            (ctx._rare_min_os, tables.os_tau_cols(rare), tables.os_tau_col(target)[rare]),
        ):
            reads = [screen[i] for i in range(n)]
            assert all(type(read) is float for read in reads)
            assert bits_of(reads) == bits_of((rows + to_t[None, :]).min(axis=1).tolist())


#: More words than an int64 mask has bits.
VOCABULARY = tuple(f"w{number:02d}" for number in range(70))


@pytest.fixture(scope="module")
def wordy_engine():
    """40 nodes on a two-way ring, each carrying 0-14 of 70 words."""
    rng = random.Random(11)
    builder = GraphBuilder()
    for _ in range(40):
        builder.add_node(keywords=rng.sample(VOCABULARY, rng.randint(0, 14)))
    for u in range(40):
        builder.add_bidirectional_edge(u, (u + 1) % 40, rng.uniform(0.5, 2.0), 1.0)
    return KOREngine(builder.build())


class TestDenseKeywordMasks:
    @pytest.mark.parametrize("m", (1, 62, 63, 64))
    @SETTINGS
    @given(data=st.data())
    def test_node_mask_is_the_or_of_its_bits(self, wordy_engine, m, data):
        graph = wordy_engine.graph
        n = graph.num_nodes
        # "ghost" occurs nowhere: its bit is set on no node.
        words = data.draw(
            st.lists(st.sampled_from(VOCABULARY + ("ghost",)), min_size=m, max_size=m, unique=True)
        )
        source = data.draw(st.integers(0, n - 1))
        query = KORQuery(source, data.draw(st.integers(0, n - 1)), words, 4.0)
        binding = QueryBinding.bind(graph, wordy_engine.index, query)
        assert binding.masks.dtype == (object if m >= 64 else np.int64)

        expected = [0] * n
        for node in range(n):
            held = graph.keyword_table.words_of(graph.node_keywords(node))
            for bit, word in enumerate(words):
                if word in held:
                    expected[node] |= 1 << bit
        masks = [binding.node_mask(node) for node in range(n)]
        assert all(type(mask) is int for mask in masks)
        assert masks == expected

        # Labels sort on their masks' popcount, whatever the mask width.
        for node in range(n):
            label = Label(node, masks[source] | masks[node], 0.0, 0.0, 0.0)
            assert label_sort_key(label)[0] == -bin(masks[source] | masks[node]).count("1")

        copy = pickle.loads(pickle.dumps(binding))
        assert [copy.node_mask(node) for node in range(n)] == expected
        assert copy.full_mask == binding.full_mask == (1 << m) - 1
        assert copy.missing_keywords == binding.missing_keywords

        # The keyword-node set is the binding's masks cut to the bits the
        # source misses.
        open_bits = binding.full_mask & ~expected[source]
        nodes, _rows, _to_t, carried = make_context(wordy_engine, query)._keyword_nodes()
        assert nodes.tolist() == [node for node in range(n) if expected[node] & open_bits]
        assert [int(mask) for mask in carried] == [expected[node] & open_bits for node in nodes]
