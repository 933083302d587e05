"""Objective-value scaling (Section 3.2 of the paper).

OSScaling scales every edge objective to an integer using

    theta = eps * o_min * b_min / Delta
    o_hat(vi, vj) = floor(o(vi, vj) / theta)

which bounds the number of useful labels per node (Lemma 1) and yields the
``1 / (1 - eps)`` approximation guarantee (Theorem 2).  The same machinery
with ``exact=True`` skips scaling entirely (domination then compares true
objective scores), turning the label search into an exact branch-and-bound
— that variant backs :mod:`repro.core.bruteforce`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph

__all__ = ["ScalingContext"]

# Guard against binary floating point pushing an exact quotient like
# 4 / 0.05 = 80 infinitesimally below the integer; see Example 1, where the
# paper's quotients are exact in decimal.  The bound proofs tolerate a floor
# that is off by one *downwards* but not upwards, and 1e-9 is far below any
# genuine sub-integer gap produced by realistic weights.
_FLOOR_SLACK = 1e-9


@dataclass(frozen=True)
class ScalingContext:
    """Scaling parameters for one query.

    ``theta`` is ``None`` in exact mode, where :meth:`scale` is the
    identity and domination works on true objective scores.
    """

    epsilon: float
    theta: float | None

    @classmethod
    def for_query(
        cls,
        graph: SpatialKeywordGraph,
        budget_limit: float,
        epsilon: float,
        exact: bool = False,
    ) -> "ScalingContext":
        """Build the context: ``theta = eps * o_min * b_min / Delta``."""
        if exact:
            return cls(epsilon=0.0, theta=None)
        if not (0.0 < epsilon < 1.0):
            raise QueryError(f"epsilon must be in (0, 1), got {epsilon}")
        theta = epsilon * graph.min_objective * graph.min_budget / budget_limit
        if not (theta > 0.0) or not math.isfinite(theta):
            raise QueryError(f"degenerate scaling factor theta={theta}")
        # The largest score a search scales is an edge's or a simple
        # sigma path's objective; its quotient must stay a float that
        # ``floor`` can take.
        if not math.isfinite(graph.num_nodes * graph.max_objective / theta):
            raise QueryError(
                f"budget limit {budget_limit} is too large to scale objectives "
                f"by (theta={theta})"
            )
        return cls(epsilon=epsilon, theta=theta)

    @property
    def exact(self) -> bool:
        """True when scaling is disabled (branch-and-bound mode)."""
        return self.theta is None

    def scale(self, objective: float) -> float:
        """``o_hat = floor(o / theta)`` — or ``o`` itself in exact mode.

        The return type is float so exact mode composes transparently;
        in scaled mode the value is always integral.
        """
        if self.theta is None:
            return objective
        return float(math.floor(objective / self.theta + _FLOOR_SLACK))

    def approximation_ratio(self) -> float:
        """Theorem 2's worst-case ratio ``1 / (1 - eps)`` (1.0 in exact mode)."""
        if self.theta is None:
            return 1.0
        return 1.0 / (1.0 - self.epsilon)

    def label_bound(
        self, graph: SpatialKeywordGraph, budget_limit: float, num_keywords: int
    ) -> float:
        """Lemma 1's upper bound on labels per node.

        ``2^m * floor(Delta / b_min) * floor(o_max * Delta / (eps * o_min *
        b_min))``.  Returned as a float because it overflows easily; it is
        a *bound*, not an allocation size.  In exact mode there is no such
        bound and ``inf`` is returned.
        """
        if self.theta is None:
            return math.inf
        max_edges = math.floor(budget_limit / graph.min_budget)
        max_scaled = math.floor(graph.max_objective / self.theta + _FLOOR_SLACK)
        return float(2**num_keywords) * max_edges * max_scaled
