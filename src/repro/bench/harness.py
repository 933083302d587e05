"""Timing and aggregation primitives for the experiments.

The paper reports three kinds of numbers, and this module computes all of
them from the same per-query records:

* **runtime** — average wall-clock per query of one algorithm over one
  query set (Figures 4-6, 8, 14, 16-19);
* **relative ratio** — mean of ``OS(found) / OS(base)`` over the queries
  where both the algorithm and the base produced feasible routes, the
  base being OSScaling at ``eps = 0.1`` exactly as in Section 4.2.2
  (Figures 7, 9-12, 15);
* **failure percentage** — share of queries with a feasible solution on
  which a heuristic failed to find one (Figure 13).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.core.engine import KOREngine
from repro.core.query import KORQuery

__all__ = [
    "QueryOutcome",
    "RunSummary",
    "run_query_set",
    "relative_ratio",
    "failure_percentage",
]


@dataclass(frozen=True)
class QueryOutcome:
    """One algorithm's outcome on one query."""

    query: KORQuery
    feasible: bool
    objective_score: float
    budget_score: float
    runtime_seconds: float
    labels_created: int = 0


@dataclass(frozen=True)
class RunSummary:
    """Aggregates of one algorithm over one query set."""

    algorithm: str
    outcomes: tuple[QueryOutcome, ...]

    @property
    def mean_runtime_ms(self) -> float:
        """Average per-query wall clock in milliseconds."""
        if not self.outcomes:
            return 0.0
        return 1000.0 * sum(o.runtime_seconds for o in self.outcomes) / len(self.outcomes)

    @property
    def feasible_count(self) -> int:
        """Queries answered with a feasible route."""
        return sum(o.feasible for o in self.outcomes)

    @property
    def total(self) -> int:
        """Number of queries run."""
        return len(self.outcomes)


def run_query_set(
    engine: KOREngine,
    queries: list[KORQuery],
    algorithm: str,
    **params,
) -> RunSummary:
    """Run *algorithm* over every query, recording time and outcome."""
    outcomes: list[QueryOutcome] = []
    for query in queries:
        begin = time.perf_counter()
        result = engine.run(query, algorithm=algorithm, **params)
        elapsed = time.perf_counter() - begin
        outcomes.append(
            QueryOutcome(
                query=query,
                feasible=result.feasible,
                objective_score=result.objective_score,
                budget_score=result.budget_score,
                runtime_seconds=elapsed,
                labels_created=result.stats.labels_created,
            )
        )
    return RunSummary(algorithm=algorithm, outcomes=tuple(outcomes))


def relative_ratio(summary: RunSummary, base: RunSummary) -> float:
    """Mean ``OS / OS_base`` over queries feasible in both runs.

    This is Section 4.2.2's measure; it is ``nan`` when no query is
    feasible under both runs.  Ratios are clipped below at 1e-12 base
    scores to avoid dividing by zero on degenerate graphs.
    """
    ratios = [
        outcome.objective_score / max(base_outcome.objective_score, 1e-12)
        for outcome, base_outcome in zip(summary.outcomes, base.outcomes)
        if outcome.feasible and base_outcome.feasible
    ]
    if not ratios:
        return float("nan")
    return sum(ratios) / len(ratios)


def failure_percentage(summary: RunSummary, base: RunSummary) -> float:
    """Share (%) of base-feasible queries the algorithm failed on.

    The paper counts greedy failures only over "the set of queries with
    feasible solutions", certified here by the base run (OSScaling or
    BucketBound always find a feasible route when one exists).
    """
    solvable = [
        outcome
        for outcome, base_outcome in zip(summary.outcomes, base.outcomes)
        if base_outcome.feasible
    ]
    if not solvable:
        return 0.0
    failures = sum(not outcome.feasible for outcome in solvable)
    return 100.0 * failures / len(solvable)
