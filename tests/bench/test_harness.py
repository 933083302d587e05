"""Tests for the benchmark harness (repro.bench.harness)."""

import math

from repro.bench.harness import (
    QueryOutcome,
    RunSummary,
    failure_percentage,
    relative_ratio,
    run_query_set,
)
from repro.core.query import KORQuery


def outcome(feasible, os=1.0, runtime=0.001):
    return QueryOutcome(
        query=KORQuery(0, 1, ("t1",), 5.0),
        feasible=feasible,
        objective_score=os,
        budget_score=1.0,
        runtime_seconds=runtime,
    )


class TestRunSummary:
    def test_mean_runtime(self):
        summary = RunSummary("x", (outcome(True, runtime=0.002), outcome(True, runtime=0.004)))
        assert summary.mean_runtime_ms == 3.0

    def test_counts(self):
        summary = RunSummary("x", (outcome(True), outcome(False), outcome(True)))
        assert summary.feasible_count == 2
        assert summary.total == 3

    def test_empty_summary(self):
        summary = RunSummary("x", ())
        assert summary.mean_runtime_ms == 0.0


class TestRelativeRatio:
    def test_mean_over_mutually_feasible(self):
        run = RunSummary("a", (outcome(True, os=2.0), outcome(True, os=3.0)))
        base = RunSummary("b", (outcome(True, os=1.0), outcome(True, os=1.0)))
        assert relative_ratio(run, base) == 2.5

    def test_skips_infeasible_pairs(self):
        run = RunSummary("a", (outcome(True, os=2.0), outcome(False, os=9.0)))
        base = RunSummary("b", (outcome(True, os=1.0), outcome(True, os=1.0)))
        assert relative_ratio(run, base) == 2.0

    def test_nan_when_nothing_comparable(self):
        run = RunSummary("a", (outcome(False),))
        base = RunSummary("b", (outcome(True),))
        assert math.isnan(relative_ratio(run, base))


class TestFailurePercentage:
    def test_counts_failures_over_solvable(self):
        run = RunSummary("a", (outcome(False), outcome(True), outcome(False)))
        base = RunSummary("b", (outcome(True), outcome(True), outcome(False)))
        # Two solvable queries (base feasible); greedy failed one of them.
        assert failure_percentage(run, base) == 50.0

    def test_zero_when_nothing_solvable(self):
        run = RunSummary("a", (outcome(False),))
        base = RunSummary("b", (outcome(False),))
        assert failure_percentage(run, base) == 0.0


class TestRunQuerySet:
    def test_records_per_query_outcomes(self, fig1_engine):
        queries = [
            KORQuery(0, 7, ("t1", "t2"), 10.0),
            KORQuery(0, 7, ("t5",), 6.0),  # infeasible
        ]
        summary = run_query_set(fig1_engine, queries, "bucketbound")
        assert summary.total == 2
        assert summary.feasible_count == 1
        assert summary.outcomes[0].runtime_seconds > 0
        assert summary.outcomes[1].objective_score == float("inf")
