"""OSScaling — the paper's first approximation algorithm (Algorithm 1).

A label-correcting search on the scaled graph ``G_S``: starting from the
source label, repeatedly dequeue the label with the lowest order
(Definition 8) and extend it along every out-edge (label treatment,
Definition 7).  New labels are pruned when

* they are dominated (on scaled objective!) by a label at the same node,
* the cheapest completion budget ``BS + BS(sigma_{j,t})`` already exceeds
  ``Delta``,
* the best completion objective ``OS + OS(tau_{j,t})`` cannot beat the
  current upper bound ``U``, or
* Optimisation Strategy 2 fails: the infrequent-keyword detour test, or
  the keyword floor at a wide node — for some keyword the label misses,
  the cheapest route through a node carrying it busts ``Delta`` or
  cannot beat ``U``.

When a new label covers the whole query and its objective-optimal
completion ``tau_{j,t}`` fits the budget, ``U`` improves and the label
(with that completion) becomes the incumbent answer; Theorem 2 guarantees
the returned route's objective is within ``1/(1-eps)`` of optimal.

With ``exact=True`` domination compares true objective scores, which turns
the search into an exact branch-and-bound (used as the ground-truth
baseline in :mod:`repro.core.bruteforce`).

The loop and the label treatment are
:class:`repro.core.searchbase.LabelSearch`'s; OSScaling is that search
drawing from a :class:`~repro.core.searchbase.LabelHeap` into an
:class:`~repro.core.searchbase.Incumbent`.
"""

from __future__ import annotations

from repro.core.deadline import Deadline
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import KORResult, SearchTrace
from repro.core.searchbase import Incumbent, LabelHeap, LabelSearch
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex
from repro.prep.tables import CostTables

__all__ = ["os_scaling"]


def os_scaling(
    graph: SpatialKeywordGraph,
    tables: CostTables,
    index: InvertedIndex,
    query: KORQuery,
    epsilon: float = 0.5,
    use_strategy1: bool = True,
    use_strategy2: bool = True,
    infrequent_threshold: float = 0.01,
    exact: bool = False,
    trace: SearchTrace | None = None,
    binding: QueryBinding | None = None,
    deadline: Deadline | None = None,
) -> KORResult:
    """Answer *query* with Algorithm 1.

    Parameters mirror the paper: ``epsilon`` trades accuracy for speed
    (Theorem 2 bound ``1/(1-eps)``); the two optimisation strategies can
    be toggled for ablations.  ``trace`` collects per-label events for the
    worked-example tests.  ``binding`` optionally reuses a pre-built
    query context (see :class:`repro.core.query.QueryBinding`).
    ``deadline`` arms the per-iteration cancellation checkpoint.
    """
    return LabelSearch(
        graph,
        tables,
        index,
        query,
        "exact" if exact else "osscaling",
        lambda _ctx: LabelHeap(),
        Incumbent(),
        epsilon=epsilon,
        use_strategy1=use_strategy1,
        use_strategy2=use_strategy2,
        infrequent_threshold=infrequent_threshold,
        exact=exact,
        trace=trace,
        binding=binding,
        deadline=deadline,
    ).run()
