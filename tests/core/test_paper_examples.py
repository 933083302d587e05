"""End-to-end pins of every worked example in the paper.

These are the strongest correctness anchors of the reproduction: the
Section-2 queries, Example 1's scaling, and Example 2 / Table 1's label
trace all evaluate on the reconstructed Figure-1 graph.  Two documented
errata in the paper's own examples are covered in
``repro.graph.generators``'s module docstring.
"""

import pytest

from repro.core.engine import ALGORITHMS
from repro.core.osscaling import os_scaling
from repro.core.results import SearchTrace


class TestSection2Queries:
    """Q = <v0, v7, {t1,t2,t3}, Delta> with Delta = 8 and Delta = 6."""

    @pytest.mark.parametrize("algorithm", ["osscaling", "bucketbound", "exact", "exhaustive"])
    def test_delta8_optimum(self, fig1_engine, algorithm):
        result = fig1_engine.query(0, 7, ["t1", "t2", "t3"], 8.0, algorithm=algorithm)
        assert result.feasible
        assert result.route.nodes == (0, 3, 4, 7)
        assert result.route.objective_score == 4.0
        assert result.route.budget_score == 7.0

    @pytest.mark.parametrize("algorithm", ["osscaling", "bucketbound", "exact", "exhaustive"])
    def test_delta6_optimum(self, fig1_engine, algorithm):
        result = fig1_engine.query(0, 7, ["t1", "t2", "t3"], 6.0, algorithm=algorithm)
        assert result.feasible
        assert result.route.nodes == (0, 3, 5, 7)
        assert result.route.objective_score == 9.0
        assert result.route.budget_score == 5.0

    def test_greedy_on_section2_query(self, fig1_engine):
        result = fig1_engine.query(0, 7, ["t1", "t2", "t3"], 8.0, algorithm="greedy")
        assert result.found
        assert result.covers_keywords  # coverage mode always covers


class TestTable1:
    """Example 2: Q = <v0, v7, {t1,t2}, 10>, eps = 0.5 — exact label trace.

    Masks use bit 0 = t1, bit 1 = t2 (query keyword order).  The trace is
    collected with both optimisation strategies off, i.e. the literal
    Algorithm 1 the example walks through.
    """

    #: (node, mask, scaled_os, os, bs) for each label of Table 1.
    EXPECTED = {
        "L00": (0, 0b00, 0.0, 0.0, 0.0),
        "L01": (1, 0b00, 80.0, 4.0, 1.0),
        "L11": (1, 0b01, 60.0, 3.0, 4.0),
        "L02": (2, 0b10, 20.0, 1.0, 3.0),
        "L03": (3, 0b01, 40.0, 2.0, 2.0),
        "L13": (3, 0b11, 80.0, 4.0, 5.0),
        "L04": (4, 0b01, 60.0, 3.0, 4.0),
        "L05": (5, 0b11, 100.0, 5.0, 4.0),
        "L06": (6, 0b11, 40.0, 2.0, 4.0),
    }

    @pytest.fixture(scope="class")
    def trace(self, fig1_engine):
        from repro.core.query import KORQuery

        trace = SearchTrace()
        result = os_scaling(
            fig1_engine.graph,
            fig1_engine.tables,
            fig1_engine.index,
            KORQuery(0, 7, ("t1", "t2"), 10.0),
            epsilon=0.5,
            use_strategy1=False,
            use_strategy2=False,
            trace=trace,
        )
        return trace, result

    def test_every_table1_label_is_created(self, trace):
        trace, _result = trace
        created = {(e.node, e.mask, e.scaled_os, e.os, e.bs) for e in trace.created_labels()}
        # The root label is created explicitly, not via label treatment.
        created.add((0, 0, 0.0, 0.0, 0.0))
        for name, expected in self.EXPECTED.items():
            assert expected in created, f"Table-1 label {name} missing from the trace"

    def test_L06_pruned_on_budget(self, trace):
        """Step (b): BS(sigma_{6,7}) = 7, so L06 dies (4 + 7 > 10)."""
        trace, _result = trace
        pruned = [e for e in trace.of_kind("prune_budget") if e.node == 6]
        assert any(e.bs == 4.0 for e in pruned)

    def test_step_c_feasible_route_r1(self, trace):
        """Step (c): R1 = <v0,v2,v3,v4,v7> gives the first upper bound U=6."""
        trace, _result = trace
        updates = [e.extra for e in trace.of_kind("bound_update")]
        assert 6.0 in updates

    def test_final_result_is_paper_erratum(self, trace):
        """The faithful run ends at OS=4 (documented Example-2 erratum)."""
        _trace, result = trace
        assert result.feasible
        assert result.route.objective_score == 4.0

    def test_dequeue_order_starts_with_L02(self, fig1_engine):
        """'L02 is selected because L02 < L03 < L01' (Definition 8)."""
        from repro.core.query import KORQuery

        trace = SearchTrace()
        os_scaling(
            fig1_engine.graph,
            fig1_engine.tables,
            fig1_engine.index,
            KORQuery(0, 7, ("t1", "t2"), 10.0),
            epsilon=0.5,
            use_strategy1=False,
            use_strategy2=False,
            trace=trace,
        )
        dequeues = trace.of_kind("dequeue")
        assert dequeues[0].node == 0  # the root
        assert dequeues[1].node == 2  # L02 before L03 and L01


class TestAlgorithmAgreement:
    """All exact/approximate algorithms agree on the Figure-1 instance."""

    @pytest.mark.parametrize("keywords", [("t1",), ("t2", "t4"), ("t1", "t2", "t3")])
    @pytest.mark.parametrize("delta", [6.0, 8.0, 12.0])
    def test_approximations_within_bounds(self, fig1_engine, keywords, delta):
        exact = fig1_engine.query(0, 7, keywords, delta, algorithm="exact")
        if not exact.feasible:
            for algorithm in ("osscaling", "bucketbound"):
                result = fig1_engine.query(0, 7, keywords, delta, algorithm=algorithm)
                assert not result.feasible
            return
        epsilon = 0.5
        oss = fig1_engine.query(0, 7, keywords, delta, algorithm="osscaling", epsilon=epsilon)
        assert oss.feasible
        assert oss.route.objective_score <= exact.route.objective_score / (1 - epsilon) + 1e-9
        beta = 1.2
        bb = fig1_engine.query(
            0, 7, keywords, delta, algorithm="bucketbound", epsilon=epsilon, beta=beta
        )
        assert bb.feasible
        assert bb.route.objective_score <= exact.route.objective_score * beta / (1 - epsilon) + 1e-9

    def test_every_engine_algorithm_runs(self, fig1_engine):
        for algorithm in ALGORITHMS:
            result = fig1_engine.query(0, 7, ["t1", "t2"], 10.0, algorithm=algorithm)
            assert result.found
