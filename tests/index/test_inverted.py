"""Tests for the in-memory inverted index (repro.index.inverted)."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.graph.builder import GraphBuilder
from repro.graph.generators import figure_1_graph, grid_graph, line_graph
from repro.index.inverted import InvertedIndex

from tests.strategies import small_graphs


@pytest.fixture(scope="module")
def index():
    return InvertedIndex.from_graph(figure_1_graph())


@pytest.fixture(scope="module")
def table():
    return figure_1_graph().keyword_table


def scanned_postings(graph) -> dict[int, list[int]]:
    """The oracle: each keyword id's carriers, by a scan of every node."""
    carriers: dict[int, list[int]] = {kid: [] for kid in range(len(graph.keyword_table))}
    for u in range(graph.num_nodes):
        for kid in graph.node_keywords(u):
            carriers[kid].append(u)
    return carriers


def assert_matches_scan(index: InvertedIndex, graph) -> None:
    carriers = scanned_postings(graph)
    for kid, nodes in carriers.items():
        assert index.postings(kid).tolist() == nodes, f"keyword id {kid}"
        assert index.document_frequency(kid) == len(nodes)
    assert len(index) == sum(1 for nodes in carriers.values() if nodes)


class TestPostings:
    def test_posting_lists_are_sorted_node_ids(self, index, table):
        postings = index.postings(table.id_of("t2"))
        assert postings.tolist() == [2, 5, 7]

    def test_single_node_keyword(self, index, table):
        assert index.postings(table.id_of("t5")).tolist() == [1]

    # Figure 1 labels v0..v7 with t3, t5, t2, t1, t4, t2, t1, t2.
    @pytest.mark.parametrize(
        "word, nodes",
        [("t1", [3, 6]), ("t2", [2, 5, 7]), ("t3", [0]), ("t4", [4]), ("t5", [1])],
    )
    def test_figure_1_posting_list(self, index, table, word, nodes):
        assert index.postings(table.id_of(word)).tolist() == nodes

    def test_absent_keyword_has_empty_postings(self, index):
        postings = index.postings(12345)
        assert len(postings) == 0
        assert postings.dtype == np.int64

    def test_document_frequency_matches_posting_length(self, index, table):
        for word in ("t1", "t2", "t3", "t4", "t5"):
            kid = table.id_of(word)
            assert index.document_frequency(kid) == len(index.postings(kid))

    def test_absent_keyword_has_zero_document_frequency(self, index):
        assert index.document_frequency(12345) == 0

    def test_len_counts_the_keywords_that_have_postings(self, index):
        assert len(index) == 5

    def test_postings_are_strictly_increasing_int64(self, small_flickr):
        index = InvertedIndex.from_graph(small_flickr.graph)
        for kid in range(len(small_flickr.graph.keyword_table)):
            postings = index.postings(kid)
            assert postings.dtype == np.int64
            assert bool(np.all(np.diff(postings) > 0)), f"keyword id {kid}"


class TestBuild:
    def test_multi_keyword_node_is_listed_once_per_keyword(self):
        builder = GraphBuilder()
        builder.add_node(keywords=["a", "b"])
        builder.add_node(keywords=["b"])
        builder.add_edge(0, 1, 1.0, 1.0)
        graph = builder.build()
        index = InvertedIndex.from_graph(graph)
        table = graph.keyword_table
        assert index.postings(table.id_of("a")).tolist() == [0]
        assert index.postings(table.id_of("b")).tolist() == [0, 1]

    def test_keywordless_graph_has_an_empty_index(self):
        index = InvertedIndex.from_graph(line_graph(4))
        assert len(index) == 0
        assert index.postings(0).tolist() == []
        candidates = index.candidate_sets([0, 1])
        assert {kid: nodes.tolist() for kid, nodes in candidates.items()} == {0: [], 1: []}

    def test_a_long_posting_list_keeps_every_node_in_order(self):
        n = 3000
        index = InvertedIndex.from_graph(line_graph(n, keywords=[["common"]] * n))
        assert index.postings(0).tolist() == list(range(n))
        assert index.document_frequency(0) == n

    def test_vocabulary_is_built_over_the_same_graph(self, index):
        assert index.vocabulary.num_nodes == figure_1_graph().num_nodes


class TestAgainstScan:
    """Every posting list equals a scan of the nodes' keyword sets."""

    @pytest.mark.parametrize(
        "build",
        [
            figure_1_graph,
            lambda: line_graph(5, keywords=[["a"], [], ["a", "b"], ["c"], ["b"]]),
            lambda: grid_graph(3, 4, keywords={0: ["x"], 5: ["x", "y"], 11: ["y"], 7: ["z"]}),
        ],
        ids=["figure_1", "line", "grid"],
    )
    def test_generated_graph(self, build):
        graph = build()
        assert_matches_scan(InvertedIndex.from_graph(graph), graph)

    def test_small_flickr(self, small_flickr):
        graph = small_flickr.graph
        assert_matches_scan(InvertedIndex.from_graph(graph), graph)

    @settings(max_examples=60, deadline=None)
    @given(small_graphs(max_nodes=9))
    def test_random_graph(self, graph):
        assert_matches_scan(InvertedIndex.from_graph(graph), graph)


class TestCandidateSets:
    def test_one_entry_per_distinct_id_in_first_seen_order(self, index, table):
        t1, t2 = table.id_of("t1"), table.id_of("t2")
        assert list(index.candidate_sets([t2, t1, t2, t2, t1])) == [t2, t1]

    def test_entries_are_the_posting_lists(self, index, table):
        ids = [table.id_of(word) for word in ("t1", "t2", "t4")]
        candidates = index.candidate_sets(ids)
        for kid in ids:
            assert candidates[kid] is index.postings(kid)

    def test_absent_ids_map_to_empty_int64_arrays(self, index):
        candidates = index.candidate_sets([777])
        assert list(candidates) == [777]
        assert candidates[777].tolist() == []
        assert candidates[777].dtype == np.int64

    def test_no_ids_give_an_empty_map(self, index):
        assert index.candidate_sets([]) == {}

    def test_a_one_shot_iterator_is_read_once(self, index, table):
        ids = iter([table.id_of("t1"), table.id_of("t5")])
        candidates = index.candidate_sets(ids)
        assert {kid: nodes.tolist() for kid, nodes in candidates.items()} == {
            table.id_of("t1"): [3, 6],
            table.id_of("t5"): [1],
        }


class TestVocabulary:
    def test_vocabulary_attached(self, index, table):
        assert index.vocabulary.document_frequency(table.id_of("t2")) == 3

    def test_vocabulary_agrees_with_the_postings(self, small_flickr):
        index = InvertedIndex.from_graph(small_flickr.graph)
        for kid in range(len(small_flickr.graph.keyword_table)):
            assert index.vocabulary.document_frequency(kid) == index.document_frequency(kid)
        assert len(index.vocabulary) == len(index)
