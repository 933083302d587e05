"""Route value objects (Definitions 2 and 3 of the paper).

A route is a *walk*: node repetitions are allowed.  The paper is explicit
that enumerating simple paths is not enough for KOR — an optimal solution
may revisit nodes (e.g. detour to a keyword node and come back).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.exceptions import GraphError
from repro.graph.digraph import SpatialKeywordGraph

__all__ = ["Route"]


@dataclass(frozen=True)
class Route:
    """An immutable route with its pre-computed scores.

    ``objective_score`` and ``budget_score`` are ``OS(R)`` and ``BS(R)``
    of Definition 3 — sums of the respective edge weights along ``nodes``.
    """

    nodes: tuple[int, ...]
    objective_score: float
    budget_score: float

    @classmethod
    def from_nodes(cls, graph: SpatialKeywordGraph, nodes: list[int] | tuple[int, ...]) -> "Route":
        """Score an explicit node sequence against *graph*.

        Raises :class:`GraphError` when a consecutive pair is not an edge.
        """
        nodes = tuple(int(v) for v in nodes)
        if not nodes:
            raise GraphError("a route needs at least one node")
        objective = 0.0
        budget = 0.0
        for u, v in zip(nodes, nodes[1:]):
            obj, bud = graph.edge(u, v)
            objective += obj
            budget += bud
        return cls(nodes=nodes, objective_score=objective, budget_score=budget)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def source(self) -> int:
        """First node of the route."""
        return self.nodes[0]

    @property
    def target(self) -> int:
        """Last node of the route."""
        return self.nodes[-1]

    @property
    def num_edges(self) -> int:
        """Number of edges traversed (0 for a single-node route)."""
        return len(self.nodes) - 1

    def covered_keywords(self, graph: SpatialKeywordGraph) -> frozenset[int]:
        """Union of keyword ids over every node on the route."""
        covered: set[int] = set()
        for node in self.nodes:
            covered |= graph.node_keywords(node)
        return frozenset(covered)

    def covered_keyword_strings(self, graph: SpatialKeywordGraph) -> frozenset[str]:
        """Union of keyword strings over every node on the route."""
        return graph.keyword_table.words_of(self.covered_keywords(graph))

    def covers(self, graph: SpatialKeywordGraph, keywords: tuple[str, ...]) -> bool:
        """Whether the route covers every keyword in *keywords*."""
        table = graph.keyword_table
        covered = self.covered_keywords(graph)
        for word in keywords:
            kid = table.get(word)
            if kid is None or kid not in covered:
                return False
        return True

    def describe(self, graph: SpatialKeywordGraph) -> str:
        """One-line human-readable rendering, e.g. ``v0 -> v3 -> v7``."""
        names = " -> ".join(graph.name_of(v) for v in self.nodes)
        return f"{names}  (OS={self.objective_score:.4g}, BS={self.budget_score:.4g})"
