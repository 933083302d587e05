"""Tests for vocabulary statistics (repro.index.vocabulary)."""

import pytest

from repro.exceptions import GraphError, QueryError
from repro.graph.builder import GraphBuilder
from repro.graph.generators import figure_1_graph
from repro.index.vocabulary import Vocabulary


@pytest.fixture()
def vocabulary():
    return Vocabulary(figure_1_graph())


class TestDocumentFrequency:
    def test_figure1_frequencies(self, vocabulary):
        graph = figure_1_graph()
        table = graph.keyword_table
        # t2 appears on v2, v5, v7; t1 on v3, v6.
        assert vocabulary.document_frequency(table.id_of("t2")) == 3
        assert vocabulary.document_frequency(table.id_of("t1")) == 2
        assert vocabulary.document_frequency(table.id_of("t4")) == 1

    def test_unknown_keyword_has_zero_df(self, vocabulary):
        assert vocabulary.document_frequency(999) == 0

    def test_relative_frequency(self, vocabulary):
        graph = figure_1_graph()
        kid = graph.keyword_table.id_of("t2")
        assert vocabulary.relative_frequency(kid) == pytest.approx(3 / 8)


class TestInfrequency:
    """Strategy 2's rare-word screen (paper: 'below a frequency threshold,
    such as appearing in less than 1% nodes')."""

    def test_threshold_semantics(self, vocabulary):
        graph = figure_1_graph()
        t4 = graph.keyword_table.id_of("t4")  # df = 1 of 8 nodes
        assert vocabulary.is_infrequent(t4, threshold=0.5)
        assert not vocabulary.is_infrequent(t4, threshold=0.01)

    def test_absent_keyword_is_not_infrequent(self, vocabulary):
        # df = 0 means "not in the graph", a different failure mode.
        assert not vocabulary.is_infrequent(999, threshold=0.5)

    def test_least_frequent(self, vocabulary):
        graph = figure_1_graph()
        table = graph.keyword_table
        ids = [table.id_of("t1"), table.id_of("t2"), table.id_of("t4")]
        assert vocabulary.least_frequent(ids) == table.id_of("t4")

    def test_least_frequent_requires_input(self, vocabulary):
        with pytest.raises(QueryError):
            vocabulary.least_frequent([])

    def test_multi_keyword_nodes_counted_once(self):
        builder = GraphBuilder()
        builder.add_node(keywords=["a", "b"])
        builder.add_node(keywords=["a"])
        builder.add_edge(0, 1, 1.0, 1.0)
        vocabulary = Vocabulary(builder.build())
        table = builder.keyword_table
        assert vocabulary.document_frequency(table.id_of("a")) == 2
        assert vocabulary.document_frequency(table.id_of("b")) == 1

    def test_least_frequent_breaks_ties_by_id(self, vocabulary):
        table = figure_1_graph().keyword_table
        singles = [table.id_of(word) for word in ("t5", "t3", "t4")]  # df = 1 each
        assert vocabulary.least_frequent(singles) == min(singles)

    def test_least_frequent_ignores_input_order(self, vocabulary):
        table = figure_1_graph().keyword_table
        ids = [table.id_of(word) for word in ("t2", "t1", "t4", "t3")]
        assert vocabulary.least_frequent(ids) == vocabulary.least_frequent(ids[::-1])

    def test_least_frequent_prefers_an_absent_keyword(self, vocabulary):
        # df = 0 sorts first: no node can cover it, which the search
        # reports as infeasible rather than as a waypoint.
        table = figure_1_graph().keyword_table
        assert vocabulary.least_frequent([table.id_of("t4"), 999]) == 999

    def test_least_frequent_of_one_keyword_is_itself(self, vocabulary):
        kid = figure_1_graph().keyword_table.id_of("t2")
        assert vocabulary.least_frequent([kid]) == kid

    def test_threshold_is_a_strict_bound(self, vocabulary):
        # t4 is on 1 of 8 nodes: 1 < 0.125 * 8 is false, 1 < 0.25 * 8 true.
        t4 = figure_1_graph().keyword_table.id_of("t4")
        assert not vocabulary.is_infrequent(t4, threshold=0.125)
        assert vocabulary.is_infrequent(t4, threshold=0.25)

    def test_small_graphs_floor_the_threshold_at_one_node(self, vocabulary):
        # 0.01 * 8 nodes rounds nothing up: no keyword on a node is below
        # one node, so the default threshold marks nothing on Figure 1.
        table = figure_1_graph().keyword_table
        assert not any(
            vocabulary.is_infrequent(table.id_of(word))
            for word in ("t1", "t2", "t3", "t4", "t5")
        )


class TestRecords:
    def test_stats_record(self, vocabulary):
        kid = figure_1_graph().keyword_table.id_of("t2")
        stats = vocabulary.stats(kid)
        assert (stats.keyword_id, stats.word, stats.document_frequency) == (kid, "t2", 3)

    def test_stats_of_an_unknown_id_is_refused(self, vocabulary):
        with pytest.raises(GraphError):
            vocabulary.stats(999)

    def test_num_nodes_is_the_graph_size(self, vocabulary):
        assert vocabulary.num_nodes == 8

    def test_len_counts_keywords_on_some_node(self, vocabulary):
        assert len(vocabulary) == 5

    def test_absent_keyword_has_zero_relative_frequency(self, vocabulary):
        assert vocabulary.relative_frequency(999) == 0.0

    def test_relative_frequencies_of_figure_1_sum_to_one(self, vocabulary):
        # Every Figure 1 node carries exactly one keyword.
        table = figure_1_graph().keyword_table
        total = sum(vocabulary.relative_frequency(kid) for kid in range(len(table)))
        assert total == pytest.approx(1.0)
