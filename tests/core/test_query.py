"""Tests for KOR query objects and binding (repro.core.query)."""

import numpy as np
import pytest

from repro.core.query import KORQuery, QueryBinding
from repro.exceptions import QueryError
from repro.graph.generators import figure_1_graph
from repro.index.inverted import InvertedIndex


@pytest.fixture(scope="module")
def graph():
    return figure_1_graph()


@pytest.fixture(scope="module")
def index(graph):
    return InvertedIndex.from_graph(graph)


class TestKORQuery:
    def test_basic_fields(self):
        query = KORQuery(0, 7, ("t1", "t2"), 8.0)
        assert query.source == 0
        assert query.target == 7
        assert query.keywords == ("t1", "t2")
        assert query.budget_limit == 8.0
        assert query.num_keywords == 2

    def test_duplicate_keywords_deduplicated_in_order(self):
        query = KORQuery(0, 1, ("b", "a", "b"), 1.0)
        assert query.keywords == ("b", "a")

    def test_empty_keyword_set_allowed(self):
        # Degenerates to the weight-constrained shortest path problem.
        assert KORQuery(0, 1, (), 1.0).num_keywords == 0

    @pytest.mark.parametrize("budget", [0.0, -1.0])
    def test_non_positive_budget_rejected(self, budget):
        with pytest.raises(QueryError, match="budget limit"):
            KORQuery(0, 1, ("a",), budget)

    @pytest.mark.parametrize("bad", ["", 3, None])
    def test_invalid_keywords_rejected(self, bad):
        with pytest.raises(QueryError):
            KORQuery(0, 1, (bad,), 1.0)

    def test_frozen(self):
        query = KORQuery(0, 1, ("a",), 1.0)
        with pytest.raises(Exception):
            query.source = 5  # type: ignore[misc]


class TestQueryBinding:
    def test_full_mask(self, graph, index):
        binding = QueryBinding.bind(graph, index, KORQuery(0, 7, ("t1", "t2"), 8.0))
        assert binding.full_mask == 0b11

    def test_node_masks(self, graph, index):
        binding = QueryBinding.bind(graph, index, KORQuery(0, 7, ("t1", "t2"), 8.0))
        assert binding.node_mask(3) == 0b01  # v3 carries t1 (bit 0)
        assert binding.node_mask(2) == 0b10  # v2 carries t2 (bit 1)
        assert binding.node_mask(0) == 0  # v0 carries t3, not a query keyword

    def test_nodes_with_bit(self, graph, index):
        binding = QueryBinding.bind(graph, index, KORQuery(0, 7, ("t2",), 8.0))
        assert binding.nodes_with_bit[0].tolist() == [2, 5, 7]

    def test_missing_keywords_reported(self, graph, index):
        binding = QueryBinding.bind(graph, index, KORQuery(0, 7, ("t1", "ghost"), 8.0))
        assert binding.missing_keywords == ("ghost",)
        assert not binding.vocabulary_feasible

    def test_out_of_range_endpoints_rejected(self, graph, index):
        with pytest.raises(QueryError, match="source"):
            QueryBinding.bind(graph, index, KORQuery(99, 7, ("t1",), 8.0))
        with pytest.raises(QueryError, match="target"):
            QueryBinding.bind(graph, index, KORQuery(0, 99, ("t1",), 8.0))

    def test_uncovered_bits(self, graph, index):
        binding = QueryBinding.bind(graph, index, KORQuery(0, 7, ("t1", "t2", "t4"), 8.0))
        assert binding.uncovered_bits(0b001) == [1, 2]
        assert binding.uncovered_bits(0b111) == []

    def test_mask_to_words(self, graph, index):
        binding = QueryBinding.bind(graph, index, KORQuery(0, 7, ("t1", "t2"), 8.0))
        assert binding.mask_to_words(0b01) == frozenset({"t1"})
        assert binding.mask_to_words(0b11) == frozenset({"t1", "t2"})

    def test_candidate_map_entries_are_taken_as_given(self, graph, index):
        t2 = graph.keyword_table.id_of("t2")
        narrowed = {t2: np.asarray([5], dtype=np.int64)}
        binding = QueryBinding.bind(graph, index, KORQuery(0, 7, ("t2",), 8.0), candidates=narrowed)
        assert binding.nodes_with_bit[0].tolist() == [5]
        assert binding.node_mask(2) == 0

    def test_keywords_outside_the_candidate_map_read_the_index(self, graph, index):
        t2 = graph.keyword_table.id_of("t2")
        candidates = index.candidate_sets([t2])
        binding = QueryBinding.bind(
            graph, index, KORQuery(0, 7, ("t2", "t1"), 8.0), candidates=candidates
        )
        assert [nodes.tolist() for nodes in binding.nodes_with_bit] == [[2, 5, 7], [3, 6]]
        assert binding.node_mask(3) == 0b10
