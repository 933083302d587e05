"""Tests for the KOREngine facade (repro.core.engine)."""

import pytest

from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables


class TestConstruction:
    def test_builds_tables_and_index_by_default(self, fig1_graph):
        engine = KOREngine(fig1_graph)
        assert engine.tables.num_nodes == fig1_graph.num_nodes
        assert engine.index.document_frequency(fig1_graph.keyword_table.id_of("t2")) == 3

    def test_accepts_prebuilt_components(self, fig1_graph):
        tables = CostTables.from_graph(fig1_graph)
        index = InvertedIndex.from_graph(fig1_graph)
        engine = KOREngine(fig1_graph, tables=tables, index=index)
        assert engine.tables is tables
        assert engine.index is index

    def test_graph_accessor(self, fig1_engine, fig1_graph):
        assert fig1_engine.graph is fig1_graph


class TestDispatch:
    def test_unknown_algorithm_raises(self, fig1_engine):
        with pytest.raises(QueryError, match="unknown algorithm"):
            fig1_engine.query(0, 7, ["t1"], 8.0, algorithm="dijkstra")

    def test_all_listed_algorithms_dispatch(self, fig1_engine):
        for algorithm in ALGORITHMS:
            result = fig1_engine.query(0, 7, ["t1"], 8.0, algorithm=algorithm)
            assert result.found

    def test_params_forwarded(self, fig1_engine):
        loose = fig1_engine.query(0, 7, ["t1", "t2"], 10.0, algorithm="osscaling", epsilon=0.9)
        assert loose.feasible

    def test_greedy2_sets_width(self, fig1_engine):
        result = fig1_engine.query(0, 7, ["t1"], 8.0, algorithm="greedy2")
        assert result.algorithm == "greedy-2"

    def test_run_accepts_prebuilt_query(self, fig1_engine):
        query = KORQuery(0, 7, ("t1", "t2"), 10.0)
        result = fig1_engine.run(query, algorithm="bucketbound")
        assert result.query is query

    def test_results_report_algorithm(self, fig1_engine):
        assert fig1_engine.query(0, 7, ["t1"], 8.0, algorithm="osscaling").algorithm == "osscaling"
        assert fig1_engine.query(0, 7, ["t1"], 8.0, algorithm="exact").algorithm == "exact"


class TestParameterRefusal:
    """A parameter the chosen search does not take, or a ``beta`` no
    bucket grid can use, is the caller's error: a ``QueryError`` naming
    it, never a ``TypeError`` / ``ValueError`` from inside the search."""

    @pytest.mark.parametrize(
        "algorithm,params,named",
        [
            ("osscaling", {"bogus": 1}, "bogus"),
            ("osscaling", {"beta": 1.5}, "beta"),
            ("exact", {"epsilon": 0.5}, "epsilon"),
            ("greedy", {"beta": 1.5}, "beta"),
            ("exhaustive", {"epsilon": 0.5}, "epsilon"),
        ],
    )
    def test_run_refuses_a_name_the_algorithm_does_not_take(
        self, fig1_engine, algorithm, params, named
    ):
        with pytest.raises(QueryError, match=f"no parameter '{named}'") as excinfo:
            fig1_engine.query(0, 7, ["t1", "t2"], 10.0, algorithm=algorithm, **params)
        # The message lists what the algorithm does take.
        message = str(excinfo.value)
        assert "it accepts" in message and "deadline" in message

    @pytest.mark.parametrize(
        "algorithm,params,named",
        [
            ("bucketbound", {"epsilon": "x"}, "'epsilon' must be float"),
            ("bucketbound", {"beta": [2]}, "'beta' must be float"),
            ("osscaling", {"infrequent_threshold": "x"}, "'infrequent_threshold' must be float"),
            ("bucketbound", {"use_strategy1": "no"}, "'use_strategy1' must be bool"),
            ("osscaling", {"epsilon": True}, "'epsilon' must be float"),
            ("greedy", {"width": 2.5}, "'width' must be int"),
            ("greedy", {"width": -1}, "width must be >= 1"),
            ("greedy", {"mode": "bogus"}, "mode must be"),
            ("exhaustive", {"max_expansions": "many"}, "'max_expansions' must be int"),
            ("bucketbound", {"trace": 1}, "'trace' must be SearchTrace, got int"),
            ("osscaling", {"binding": 1}, "'binding' must be QueryBinding, got int"),
            ("bucketbound", {"deadline": 1}, "'deadline' must be Deadline, got int"),
            ("greedy", {"candidates": 1}, "'candidates' must be dict, got int"),
            ("greedy", {"binding": "x"}, "'binding' must be QueryBinding, got str"),
        ],
    )
    def test_run_and_top_k_refuse_a_mistyped_value(self, fig1_engine, algorithm, params, named):
        """A value the type of the parameter's default refuses; ``True`` is
        no number, though ``bool`` subclasses ``int``.  A parameter whose
        default is ``None`` takes the other member of its annotation."""
        with pytest.raises(QueryError, match=named):
            fig1_engine.query(0, 7, ["t1", "t2"], 10.0, algorithm=algorithm, **params)
        if algorithm in ("osscaling", "bucketbound"):
            with pytest.raises(QueryError, match=named):
                fig1_engine.top_k(0, 7, ["t1", "t2"], 10.0, 2, algorithm=algorithm, **params)

    def test_none_stays_accepted_for_object_parameters(self, fig1_engine):
        nothing = {"trace": None, "binding": None, "deadline": None}
        assert fig1_engine.query(0, 7, ["t1", "t2"], 10.0, candidates=None, **nothing).found
        assert fig1_engine.top_k(0, 7, ["t1", "t2"], 10.0, 2, **nothing).found

    def test_numeric_values_of_any_real_type_are_taken(self, fig1_engine):
        import numpy as np

        result = fig1_engine.query(
            0, 7, ["t1", "t2"], 10.0, algorithm="greedy", alpha=np.float32(0.5), width=np.int64(2)
        )
        assert result.found
        assert fig1_engine.query(0, 7, ["t1", "t2"], 10.0, epsilon=1 / 2, beta=2).found

    def test_top_k_refuses_a_name_the_algorithm_does_not_take(self, fig1_engine):
        with pytest.raises(QueryError, match="no parameter 'beta'"):
            fig1_engine.top_k(0, 7, ["t1", "t2"], 10.0, 2, algorithm="osscaling", beta=1.5)

    def test_top_k_takes_the_top_1_tuning_parameters(self, fig1_engine):
        for algorithm in ("osscaling", "bucketbound"):
            result = fig1_engine.top_k(
                0, 7, ["t1", "t2"], 10.0, 2, algorithm=algorithm, infrequent_threshold=0.2
            )
            assert len(result.routes) == 2

    @pytest.mark.parametrize("beta", [1.0, 0.5, -2.0])
    def test_beta_at_or_below_one_is_refused(self, fig1_engine, beta):
        with pytest.raises(QueryError, match="beta must be > 1"):
            fig1_engine.query(0, 7, ["t1", "t2"], 10.0, algorithm="bucketbound", beta=beta)
        with pytest.raises(QueryError, match="beta must be > 1"):
            fig1_engine.top_k(0, 7, ["t1", "t2"], 10.0, 2, algorithm="bucketbound", beta=beta)


class TestIndexLookups:
    """Every search reads its posting lists through the engine's index,
    directly or from a batch's shared candidate map, with one outcome."""

    @staticmethod
    def fingerprint(result):
        route = result.route
        return (
            result.feasible,
            result.failure_reason,
            None if route is None else (tuple(route.nodes), route.objective_score),
        )

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_candidate_map_answers_like_direct_lookups(self, fig1_engine, algorithm):
        query = KORQuery(0, 7, ("t1", "t2", "t4"), 10.0)
        candidates = fig1_engine.candidate_sets(query.keywords)
        assert self.fingerprint(
            fig1_engine.run(query, algorithm=algorithm, candidates=candidates)
        ) == self.fingerprint(fig1_engine.run(query, algorithm=algorithm))

    # The exhaustive oracle runs none of the feasibility screens (it shares
    # no code with the label search): it only finds no covering walk.
    @pytest.mark.parametrize("algorithm", [name for name in ALGORITHMS if name != "exhaustive"])
    def test_absent_keyword_is_reported_by_name(self, fig1_engine, algorithm):
        query = KORQuery(0, 7, ("t1", "keyword-that-does-not-exist"), 10.0)
        result = fig1_engine.run(query, algorithm=algorithm)
        assert not result.feasible
        assert result.failure_reason == (
            "keywords not present in the graph: keyword-that-does-not-exist"
        )

    def test_engine_over_another_engines_index_answers_alike(self, small_flickr_engine):
        graph = small_flickr_engine.graph
        twin = KOREngine(graph, tables=small_flickr_engine.tables, index=small_flickr_engine.index)
        words = sorted(graph.keyword_table.words)[:2]
        query = KORQuery(0, graph.num_nodes - 1, tuple(words), 5.0)
        for algorithm in ("osscaling", "bucketbound", "greedy"):
            assert self.fingerprint(twin.run(query, algorithm=algorithm)) == self.fingerprint(
                small_flickr_engine.run(query, algorithm=algorithm)
            )

    def test_candidate_sets_skip_unknown_words(self, fig1_engine, fig1_graph):
        candidates = fig1_engine.candidate_sets(["t1", "ghost", "t1", "t2"])
        table = fig1_graph.keyword_table
        assert {kid: nodes.tolist() for kid, nodes in candidates.items()} == {
            table.id_of("t1"): [3, 6],
            table.id_of("t2"): [2, 5, 7],
        }

    def test_candidate_sets_look_each_keyword_up_once(self, fig1_graph, monkeypatch):
        engine = KOREngine(fig1_graph)
        looked_up = []
        postings = engine.index.postings
        monkeypatch.setattr(
            engine.index, "postings", lambda kid: looked_up.append(kid) or postings(kid)
        )
        engine.candidate_sets(["t2", "t1", "t2", "t2"])
        table = fig1_graph.keyword_table
        assert looked_up == [table.id_of("t2"), table.id_of("t1")]
