"""The spatial-keyword digraph substrate.

This is the graph of Definition 1 in the paper: a directed graph whose
nodes carry keyword sets (``v.psi``) and whose edges carry two strictly
positive weights — an **objective value** ``o(vi, vj)`` and a **budget
value** ``b(vi, vj)`` (Definition 3 sums these along a route).

The structure is immutable once constructed (use
:class:`repro.graph.builder.GraphBuilder` to assemble one); immutability
lets us cache derived artifacts (CSR matrices, weight extrema) that the
pre-processing and search layers rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graph.keywords import KeywordTable

__all__ = ["SpatialKeywordGraph", "Edge", "GraphStats"]


@dataclass(frozen=True)
class Edge:
    """A single directed edge ``(u, v)`` with its two weights."""

    u: int
    v: int
    objective: float
    budget: float


@dataclass(frozen=True)
class GraphStats:
    """Summary statistics used by reports, tests and the dataset generators."""

    num_nodes: int
    num_edges: int
    min_objective: float
    max_objective: float
    min_budget: float
    max_budget: float
    max_out_degree: int
    mean_out_degree: float
    num_keywords: int
    mean_keywords_per_node: float


_Row = tuple[tuple[int, float, float], ...]


def _frozen_row(u: int, out: Sequence[tuple[int, float, float]], n: int) -> _Row:
    """The out-edges of *u*, validated and frozen (the one edge check)."""
    seen_targets: set[int] = set()
    for v, obj, bud in out:
        if not (0 <= v < n):
            raise GraphError(f"edge ({u}, {v}) points outside the node range")
        if v in seen_targets:
            raise GraphError(f"duplicate edge ({u}, {v})")
        seen_targets.add(v)
        if not (obj > 0.0) or not np.isfinite(obj):
            raise GraphError(f"edge ({u}, {v}) objective must be finite and > 0, got {obj}")
        if not (bud > 0.0) or not np.isfinite(bud):
            raise GraphError(f"edge ({u}, {v}) budget must be finite and > 0, got {bud}")
    return tuple((int(v), float(o), float(b)) for v, o, b in out)


def _weight_bounds(adj: Sequence[_Row], position: int) -> tuple[float, float]:
    """``(min, max)`` of one edge weight over every row; ``(inf, -inf)`` if edgeless."""
    weights = [edge[position] for out in adj for edge in out]
    return (min(weights), max(weights)) if weights else (np.inf, -np.inf)


class SpatialKeywordGraph:
    """Immutable directed graph with per-node keywords and two edge weights.

    Parameters
    ----------
    adjacency:
        ``adjacency[u]`` is a list of ``(v, objective, budget)`` tuples for
        every out-edge of node ``u``.  Node ids must be dense integers
        ``0 .. n-1``.
    node_keywords:
        ``node_keywords[u]`` is a frozenset of interned keyword ids.
    keyword_table:
        The :class:`KeywordTable` that interned the keyword ids.
    names:
        Optional human-readable node names (e.g. ``"v0"`` or a POI name).
    xs, ys:
        Optional node coordinates (used by the dataset generators, the
        greedy examples and plots; never consulted by the core algorithms).
    """

    __slots__ = (
        "_adj",
        "_node_keywords",
        "_keyword_table",
        "_names",
        "_xs",
        "_ys",
        "_num_edges",
        "_objective_bounds",
        "_budget_bounds",
        "_csr_cache",
        "_edge_lookup",
        "_edge_scans",
    )

    def __init__(
        self,
        adjacency: Sequence[Sequence[tuple[int, float, float]]],
        node_keywords: Sequence[frozenset[int]],
        keyword_table: KeywordTable,
        names: Sequence[str] | None = None,
        xs: Sequence[float] | None = None,
        ys: Sequence[float] | None = None,
    ) -> None:
        n = len(adjacency)
        if len(node_keywords) != n:
            raise GraphError(
                f"adjacency has {n} nodes but node_keywords has {len(node_keywords)}"
            )
        if names is not None and len(names) != n:
            raise GraphError(f"names has {len(names)} entries for {n} nodes")
        if (xs is None) != (ys is None):
            raise GraphError("xs and ys must be supplied together")
        if xs is not None and (len(xs) != n or len(ys) != n):
            raise GraphError("coordinate arrays must have one entry per node")

        self._node_keywords: tuple[frozenset[int], ...] = tuple(
            frozenset(ks) for ks in node_keywords
        )
        self._keyword_table = keyword_table
        self._names: tuple[str, ...] = (
            tuple(names) if names is not None else tuple(f"v{i}" for i in range(n))
        )
        self._xs = None if xs is None else np.asarray(xs, dtype=np.float64)
        self._ys = None if ys is None else np.asarray(ys, dtype=np.float64)
        self._set_rows(tuple(_frozen_row(u, out, n) for u, out in enumerate(adjacency)))

    def _set_rows(self, adj: tuple[_Row, ...]) -> None:
        """Adopt validated rows; everything derived from them starts over."""
        self._adj = adj
        self._num_edges = sum(map(len, adj))
        self._objective_bounds = _weight_bounds(adj, 1)
        self._budget_bounds = _weight_bounds(adj, 2)
        self._csr_cache: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray] | None = None
        self._edge_lookup: dict[tuple[int, int], tuple[float, float]] | None = None
        self._edge_scans = 0

    def with_rows(
        self,
        rows: Mapping[int, Sequence[tuple[int, float, float]]],
        node_keywords: Mapping[int, frozenset[int]] | None = None,
    ) -> "SpatialKeywordGraph":
        """A copy-on-write sibling: *rows* replace the out-edges of the
        nodes they name, *node_keywords* their keyword sets.

        A replaced row passes the constructor's full edge validation; every
        other row is this graph's own (already validated) tuple, shared, as
        are the names, coordinates and keyword table.  Edge count and weight
        bounds are recomputed over all rows, so the result equals the graph
        the constructor would build from the same adjacency.
        """
        n = self.num_nodes
        for u in (*rows, *(node_keywords or ())):
            if not 0 <= u < n:
                raise GraphError(f"node {u} is outside the node range")
        adj = list(self._adj)
        for u, out in rows.items():
            adj[u] = _frozen_row(u, out, n)
        keywords = list(self._node_keywords)
        for u, ks in (node_keywords or {}).items():
            keywords[u] = frozenset(ks)
        sibling = object.__new__(type(self))
        sibling._node_keywords = tuple(keywords)
        sibling._keyword_table = self._keyword_table
        sibling._names, sibling._xs, sibling._ys = self._names, self._xs, self._ys
        sibling._set_rows(tuple(adj))
        return sibling

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        """Number of nodes ``|V|``."""
        return len(self._adj)

    @property
    def num_edges(self) -> int:
        """Number of directed edges ``|E|``."""
        return self._num_edges

    @property
    def keyword_table(self) -> KeywordTable:
        """The interning table shared by this graph's keyword ids."""
        return self._keyword_table

    def out_edges(self, u: int) -> tuple[tuple[int, float, float], ...]:
        """Out-edges of *u* as ``(v, objective, budget)`` tuples."""
        return self._adj[u]

    def out_degree(self, u: int) -> int:
        """Number of out-edges of *u*."""
        return len(self._adj[u])

    def node_keywords(self, u: int) -> frozenset[int]:
        """Interned keyword ids attached to node *u* (``v.psi``)."""
        return self._node_keywords[u]

    def node_keyword_strings(self, u: int) -> frozenset[str]:
        """Keyword strings attached to node *u* (convenience for reports)."""
        return self._keyword_table.words_of(self._node_keywords[u])

    def name_of(self, u: int) -> str:
        """Human-readable name of node *u*."""
        return self._names[u]

    def index_of(self, name: str) -> int:
        """Inverse of :meth:`name_of`; linear scan, intended for tests/examples."""
        try:
            return self._names.index(name)
        except ValueError:
            raise GraphError(f"unknown node name: {name!r}") from None

    def coordinates(self, u: int) -> tuple[float, float] | None:
        """``(x, y)`` of node *u*, or ``None`` when the graph has no geometry."""
        if self._xs is None:
            return None
        return float(self._xs[u]), float(self._ys[u])

    @property
    def has_coordinates(self) -> bool:
        """Whether nodes carry geometric coordinates."""
        return self._xs is not None

    @property
    def coordinate_arrays(self) -> tuple[np.ndarray, np.ndarray] | None:
        """The raw ``(xs, ys)`` arrays, or ``None``."""
        if self._xs is None:
            return None
        return self._xs, self._ys

    # ------------------------------------------------------------------
    # weights
    # ------------------------------------------------------------------
    @property
    def min_objective(self) -> float:
        """Smallest edge objective value ``o_min`` (Lemma 1 / scaling factor)."""
        return self._objective_bounds[0]

    @property
    def max_objective(self) -> float:
        """Largest edge objective value ``o_max`` (Lemma 1)."""
        return self._objective_bounds[1]

    @property
    def min_budget(self) -> float:
        """Smallest edge budget value ``b_min`` (Lemma 1 / scaling factor)."""
        return self._budget_bounds[0]

    @property
    def max_budget(self) -> float:
        """Largest edge budget value."""
        return self._budget_bounds[1]

    def edge(self, u: int, v: int) -> tuple[float, float]:
        """Return ``(objective, budget)`` of edge ``(u, v)``.

        Raises :class:`GraphError` when the edge does not exist.  A fresh
        graph answers by scanning the out-row of *u*; once the rows scanned
        add up to the ``|E|`` entries a hash map costs to build, the map is
        built and repeated scoring of explicit routes (Definition 3) is
        O(1) per edge.  A mutator asking about one edge of a graph that the
        next update replaces therefore never pays for the map.
        """
        lookup = self._edge_lookup
        if lookup is None:
            out = self._adj[u] if 0 <= u < len(self._adj) else ()
            self._edge_scans += len(out)
            if self._edge_scans <= self._num_edges:
                for target, obj, bud in out:
                    if target == v:
                        return obj, bud
                raise GraphError(f"no edge ({u}, {v})")
            lookup = self._edge_lookup = {
                (u_, v_): (obj, bud)
                for u_, row in enumerate(self._adj)
                for v_, obj, bud in row
            }
        try:
            return lookup[(u, v)]
        except KeyError:
            raise GraphError(f"no edge ({u}, {v})") from None

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the directed edge ``(u, v)`` exists (one out-row scan)."""
        out = self._adj[u] if 0 <= u < len(self._adj) else ()
        return any(target == v for target, _obj, _bud in out)

    def iter_edges(self) -> Iterator[Edge]:
        """Iterate over every directed edge."""
        for u, out in enumerate(self._adj):
            for v, obj, bud in out:
                yield Edge(u, v, obj, bud)

    # ------------------------------------------------------------------
    # derived structures
    # ------------------------------------------------------------------
    def to_csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Export ``(indptr, indices, objectives, budgets)`` CSR arrays.

        The result is cached; it feeds :func:`scipy.sparse.csgraph.dijkstra`
        in the pre-processing layer.
        """
        if self._csr_cache is None:
            n = self.num_nodes
            indptr = np.zeros(n + 1, dtype=np.int64)
            for u in range(n):
                indptr[u + 1] = indptr[u] + len(self._adj[u])
            m = int(indptr[-1])
            indices = np.empty(m, dtype=np.int64)
            objectives = np.empty(m, dtype=np.float64)
            budgets = np.empty(m, dtype=np.float64)
            pos = 0
            for out in self._adj:
                for v, obj, bud in out:
                    indices[pos] = v
                    objectives[pos] = obj
                    budgets[pos] = bud
                    pos += 1
            self._csr_cache = (indptr, indices, objectives, budgets)
        return self._csr_cache

    def induced_subgraph(self, nodes: Sequence[int]) -> tuple["SpatialKeywordGraph", dict[int, int]]:
        """Subgraph induced by *nodes*, re-indexed densely.

        Returns the new graph plus the mapping ``old id -> new id``.  The
        keyword table is shared (ids stay valid across both graphs).
        """
        keep = sorted(set(int(v) for v in nodes))
        if not keep:
            raise GraphError("cannot induce a subgraph on an empty node set")
        mapping = {old: new for new, old in enumerate(keep)}
        adjacency: list[list[tuple[int, float, float]]] = [[] for _ in keep]
        for old in keep:
            new_u = mapping[old]
            for v, obj, bud in self._adj[old]:
                new_v = mapping.get(v)
                if new_v is not None:
                    adjacency[new_u].append((new_v, obj, bud))
        return (
            SpatialKeywordGraph(
                adjacency,
                [self._node_keywords[old] for old in keep],
                self._keyword_table,
                names=[self._names[old] for old in keep],
                xs=None if self._xs is None else [float(self._xs[old]) for old in keep],
                ys=None if self._ys is None else [float(self._ys[old]) for old in keep],
            ),
            mapping,
        )

    def reverse(self) -> "SpatialKeywordGraph":
        """Return a new graph with every edge direction flipped."""
        rev: list[list[tuple[int, float, float]]] = [[] for _ in range(self.num_nodes)]
        for u, out in enumerate(self._adj):
            for v, obj, bud in out:
                rev[v].append((u, obj, bud))
        return SpatialKeywordGraph(
            rev,
            self._node_keywords,
            self._keyword_table,
            names=self._names,
            xs=self._xs,
            ys=self._ys,
        )

    def stats(self) -> GraphStats:
        """Summary statistics of the graph."""
        n = self.num_nodes
        degrees = [len(out) for out in self._adj]
        kw_counts = [len(ks) for ks in self._node_keywords]
        return GraphStats(
            num_nodes=n,
            num_edges=self._num_edges,
            min_objective=self.min_objective,
            max_objective=self.max_objective,
            min_budget=self.min_budget,
            max_budget=self.max_budget,
            max_out_degree=max(degrees, default=0),
            mean_out_degree=(self._num_edges / n) if n else 0.0,
            num_keywords=len(self._keyword_table),
            mean_keywords_per_node=(sum(kw_counts) / n) if n else 0.0,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SpatialKeywordGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"keywords={len(self._keyword_table)})"
        )
