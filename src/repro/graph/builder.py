"""Incremental construction of :class:`SpatialKeywordGraph` instances.

The builder accepts keyword *strings* (interning them on the fly), tolerates
nodes being declared in any order, validates weights eagerly, and produces an
immutable graph via :meth:`GraphBuilder.build`.
"""

from __future__ import annotations

from typing import Iterable

from repro.exceptions import GraphError
from repro.graph.digraph import SpatialKeywordGraph
from repro.graph.keywords import KeywordTable

__all__ = ["GraphBuilder"]


class GraphBuilder:
    """Mutable accumulator for nodes and edges of a spatial-keyword graph.

    Typical usage::

        builder = GraphBuilder()
        a = builder.add_node(keywords=["pub"], name="corner pub", x=1.0, y=2.0)
        b = builder.add_node(keywords=["mall", "restaurant"])
        builder.add_edge(a, b, objective=0.7, budget=1.2)
        graph = builder.build()
    """

    def __init__(self, keyword_table: KeywordTable | None = None) -> None:
        self._keywords = keyword_table if keyword_table is not None else KeywordTable()
        self._node_keywords: list[frozenset[int]] = []
        self._names: list[str] = []
        self._xs: list[float] = []
        self._ys: list[float] = []
        self._has_coords: bool | None = None
        self._edges: dict[tuple[int, int], tuple[float, float]] = {}

    # ------------------------------------------------------------------
    # nodes
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes added so far."""
        return len(self._node_keywords)

    @property
    def num_edges(self) -> int:
        """Number of edges added so far."""
        return len(self._edges)

    @property
    def keyword_table(self) -> KeywordTable:
        """The (shared) keyword interning table."""
        return self._keywords

    def add_node(
        self,
        keywords: Iterable[str] = (),
        name: str | None = None,
        x: float | None = None,
        y: float | None = None,
    ) -> int:
        """Add a node and return its id.

        Either every node carries ``(x, y)`` coordinates or none does;
        mixing raises :class:`GraphError`.
        """
        has_coords = x is not None or y is not None
        if has_coords and (x is None or y is None):
            raise GraphError("both x and y must be given for a located node")
        if self._has_coords is None:
            self._has_coords = has_coords
        elif self._has_coords != has_coords:
            raise GraphError("all nodes must consistently have or lack coordinates")

        node_id = len(self._node_keywords)
        self._node_keywords.append(self._keywords.intern_many(keywords))
        self._names.append(name if name is not None else f"v{node_id}")
        if has_coords:
            self._xs.append(float(x))  # type: ignore[arg-type]
            self._ys.append(float(y))  # type: ignore[arg-type]
        return node_id

    def add_keywords(self, node: int, keywords: Iterable[str]) -> None:
        """Attach additional keywords to an existing node."""
        self._check_node(node)
        self._node_keywords[node] = self._node_keywords[node] | self._keywords.intern_many(keywords)

    # ------------------------------------------------------------------
    # edges
    # ------------------------------------------------------------------
    def add_edge(
        self,
        u: int,
        v: int,
        objective: float,
        budget: float,
        overwrite: bool = False,
    ) -> None:
        """Add the directed edge ``(u, v)``.

        Weights must be finite and strictly positive: the scaling factor
        ``theta = eps * o_min * b_min / Delta`` (Section 3.2) divides by both
        minima, and Lemma 1's label bound divides by ``b_min``.
        """
        self._check_node(u)
        self._check_node(v)
        if u == v:
            raise GraphError(f"self-loop ({u}, {u}) is not allowed")
        objective = float(objective)
        budget = float(budget)
        if not objective > 0.0:
            raise GraphError(f"edge ({u}, {v}) objective must be > 0, got {objective}")
        if not budget > 0.0:
            raise GraphError(f"edge ({u}, {v}) budget must be > 0, got {budget}")
        key = (u, v)
        if key in self._edges and not overwrite:
            raise GraphError(f"duplicate edge ({u}, {v}); pass overwrite=True to replace")
        self._edges[key] = (objective, budget)

    def add_bidirectional_edge(
        self, u: int, v: int, objective: float, budget: float, overwrite: bool = False
    ) -> None:
        """Add both ``(u, v)`` and ``(v, u)`` with identical weights.

        The paper treats directed graphs but notes the discussion "can be
        extended to undirected graphs straightforwardly" — this is that
        extension: an undirected road segment is two symmetric arcs.
        """
        self.add_edge(u, v, objective, budget, overwrite=overwrite)
        self.add_edge(v, u, objective, budget, overwrite=overwrite)

    # ------------------------------------------------------------------
    # finalisation
    # ------------------------------------------------------------------
    def build(self) -> SpatialKeywordGraph:
        """Freeze the accumulated nodes/edges into an immutable graph."""
        if not self._node_keywords:
            raise GraphError("cannot build an empty graph")
        if not self._edges:
            raise GraphError("cannot build a graph with no edges")
        n = len(self._node_keywords)
        adjacency: list[list[tuple[int, float, float]]] = [[] for _ in range(n)]
        for (u, v), (obj, bud) in sorted(self._edges.items()):
            adjacency[u].append((v, obj, bud))
        xs = self._xs if self._has_coords else None
        ys = self._ys if self._has_coords else None
        return SpatialKeywordGraph(
            adjacency,
            self._node_keywords,
            self._keywords,
            names=self._names,
            xs=xs,
            ys=ys,
        )

    # ------------------------------------------------------------------
    # internal helpers
    # ------------------------------------------------------------------
    def _check_node(self, node: int) -> None:
        if not (0 <= node < len(self._node_keywords)):
            raise GraphError(f"unknown node id {node}; add_node() it first")
