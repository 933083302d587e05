"""Result and diagnostics objects shared by every KOR algorithm."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.query import KORQuery
from repro.core.route import Route

__all__ = ["KORResult", "KkRResult", "SearchStats", "SearchTrace", "TraceEvent"]


@dataclass
class SearchStats:
    """Counters describing one search run; useful for ablations and tests."""

    labels_created: int = 0
    labels_enqueued: int = 0
    labels_pruned_budget: int = 0
    labels_pruned_bound: int = 0
    labels_pruned_dominated: int = 0
    labels_pruned_strategy2: int = 0
    labels_evicted: int = 0
    jump_labels_created: int = 0
    loops: int = 0
    bound_updates: int = 0
    buckets_opened: int = 0
    runtime_seconds: float = 0.0


@dataclass(frozen=True)
class TraceEvent:
    """One step of a traced search (used by the paper-example tests).

    ``kind`` is one of ``create``, ``enqueue``, ``dequeue``,
    ``prune_budget``, ``prune_bound``, ``prune_dominated``,
    ``prune_strategy2`` or ``bound_update``.  ``prune_strategy2`` is
    Strategy 2 in either form: the rare-keyword detour test, or the
    keyword floor (``SearchContext.floor_rejects``), which drops a created
    label — or a drawn one, against the bound as it stands then — when the
    cheapest route through some keyword it misses busts the budget or
    cannot beat the bound.
    """

    kind: str
    node: int
    mask: int
    scaled_os: float
    os: float
    bs: float
    extra: float | None = None


class SearchTrace:
    """Collects :class:`TraceEvent` records when tracing is enabled.

    Every counted prune, enqueue and bound update is one event; a label
    the keyword floor drops when it is drawn gets a ``dequeue`` and then a
    ``prune_strategy2``.
    """

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []

    def record(
        self,
        kind: str,
        node: int,
        mask: int,
        scaled_os: float,
        os: float,
        bs: float,
        extra: float | None = None,
    ) -> None:
        self.events.append(TraceEvent(kind, node, mask, scaled_os, os, bs, extra))

    def of_kind(self, kind: str) -> list[TraceEvent]:
        """All events of one kind, in order."""
        return [event for event in self.events if event.kind == kind]

    def created_labels(self) -> list[TraceEvent]:
        """Convenience: the ``create`` events (Table-1 style contents)."""
        return self.of_kind("create")


@dataclass
class KORResult:
    """Outcome of a KOR query.

    ``route`` is ``None`` when the algorithm proved (or, for the greedy
    heuristic, concluded) that it cannot produce a route at all.  A greedy
    route may violate either hard constraint, so feasibility is reported
    separately from mere existence.
    """

    query: KORQuery
    algorithm: str
    route: Route | None
    covers_keywords: bool
    within_budget: bool
    stats: SearchStats = field(default_factory=SearchStats)
    failure_reason: str | None = None

    @property
    def found(self) -> bool:
        """Whether any route was produced."""
        return self.route is not None

    @property
    def feasible(self) -> bool:
        """Whether the produced route satisfies both hard constraints."""
        return self.found and self.covers_keywords and self.within_budget

    @property
    def objective_score(self) -> float:
        """``OS(R)`` of the produced route (inf when none)."""
        return self.route.objective_score if self.route else float("inf")

    @property
    def budget_score(self) -> float:
        """``BS(R)`` of the produced route (inf when none)."""
        return self.route.budget_score if self.route else float("inf")


@dataclass
class KkRResult:
    """Outcome of a keyword-aware top-k route (KkR) query."""

    query: KORQuery
    algorithm: str
    k: int
    routes: list[Route]
    stats: SearchStats = field(default_factory=SearchStats)

    @property
    def found(self) -> bool:
        """Whether at least one feasible route was produced."""
        return bool(self.routes)

    @property
    def objective_scores(self) -> list[float]:
        """``OS`` of each returned route, best first."""
        return [route.objective_score for route in self.routes]
