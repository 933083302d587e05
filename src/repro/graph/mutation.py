"""Live graph mutation: deltas, application, and the stateful mutator.

:class:`~repro.graph.digraph.SpatialKeywordGraph` is immutable by
design — pre-processing caches CSR exports and weight extrema against
it.  A *dynamic* world therefore mutates by **replacement**: every
change is first resolved into a :class:`GraphDelta` (a frozen, picklable
record of absolute edge/keyword assignments) and then applied with
:func:`apply_graph_delta`, which builds a fresh graph sharing the
append-only :class:`~repro.graph.keywords.KeywordTable`.

Deltas are deliberately **absolute and idempotent**:

* ``set_edges`` *upserts* — the edge gets exactly these weights whether
  or not it currently exists (this is what makes node re-opening a plain
  delta, and what makes re-applying a delta a no-op);
* ``drop_edges`` removes an edge if present and is silent otherwise;
* ``set_keywords`` replaces a node's keyword set with exactly these
  *strings* — strings, not interned ids, so a delta shipped to a
  process-pool worker interns new words into the worker's own table copy
  in the same first-seen order the parent did, keeping keyword ids
  identical on both sides of the pickle boundary.

:class:`GraphMutator` layers the user-facing operations on top —
``update_edge_cost`` / ``close_node`` / ``open_node`` /
``update_keywords`` — validating each against the *current* graph and
remembering enough history (cost overrides, closure set) that re-opening
a node restores its most recently configured edges and keywords.

The validation/resolution split matters downstream: resolution is strict
(closing a closed node is an error), application is lenient (re-applying
an already-applied delta changes nothing) — so a delta can be broadcast
to every process-pool worker without coordinating exactly-once delivery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.exceptions import GraphError
from repro.graph.digraph import SpatialKeywordGraph

__all__ = [
    "GraphDelta",
    "GraphMutator",
    "MutationError",
    "apply_graph_delta",
    "resolve_ops",
]

#: Operation names accepted by :func:`resolve_ops` (the wire-level set).
OP_NAMES = ("update_edge_cost", "close_node", "open_node", "update_keywords")

#: The range a re-costed edge weight must stay in.  The paper's scaling
#: factor is ``theta = eps * o_min * b_min / Delta`` (Section 3.2) and a
#: scaled objective reaches ``n * o_max / theta``; both must be
#: representable or every OSScaling / BucketBound query on the graph is
#: refused for a state an admin op created.  With weights in
#: [1e-9, 1e9], ``eps >= 1e-3``, ``Delta <= 1e9`` and ``n <= 1e6``:
#: ``theta >= 1e-3 * 1e-18 / 1e9 = 1e-30`` (far from the 5e-324
#: underflow) and ``n * o_max / theta <= 1e6 * 1e9 / 1e-30 = 1e45`` (far
#: from the 1.8e308 overflow).  Every dataset generator in the repo draws
#: weights well inside it.
MIN_EDGE_WEIGHT = 1e-9
MAX_EDGE_WEIGHT = 1e9


class MutationError(GraphError):
    """An invalid mutation request (unknown edge, double close, ...)."""


@dataclass(frozen=True)
class GraphDelta:
    """One batch of absolute graph changes, picklable and replayable.

    ``set_edges`` holds ``(u, v, objective, budget)`` upserts,
    ``drop_edges`` holds ``(u, v)`` removals and ``set_keywords`` holds
    ``(node, words)`` replacements with ``words`` a sorted tuple of
    keyword strings.  An edge never appears in both ``set_edges`` and
    ``drop_edges``; a node appears at most once in ``set_keywords``.
    """

    set_edges: tuple[tuple[int, int, float, float], ...] = ()
    drop_edges: tuple[tuple[int, int], ...] = ()
    set_keywords: tuple[tuple[int, tuple[str, ...]], ...] = ()

    @property
    def is_empty(self) -> bool:
        """Whether applying this delta can change anything."""
        return not (self.set_edges or self.drop_edges or self.set_keywords)

    @property
    def structural(self) -> bool:
        """Whether the delta changes edges (vs keywords only)."""
        return bool(self.set_edges or self.drop_edges)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge ``(u, v)`` the delta sets or drops."""
        return tuple((u, v) for u, v, _obj, _bud in self.set_edges) + self.drop_edges

    def touched_nodes(self) -> frozenset[int]:
        """Every node an applied change is anchored at."""
        nodes = {node for edge in self.edges() for node in edge}
        nodes.update(node for node, _words in self.set_keywords)
        return frozenset(nodes)

    def induced(self, mapping: Mapping[int, int]) -> "GraphDelta":
        """The slice of this delta inside the node set *mapping* covers,
        re-indexed by it — the delta twin of
        :meth:`SpatialKeywordGraph.induced_subgraph` (entry order kept, so
        applying it reproduces the induced subgraph's adjacency order)."""
        return GraphDelta(
            set_edges=tuple(
                (mapping[u], mapping[v], obj, bud)
                for u, v, obj, bud in self.set_edges
                if u in mapping and v in mapping
            ),
            drop_edges=tuple(
                (mapping[u], mapping[v])
                for u, v in self.drop_edges
                if u in mapping and v in mapping
            ),
            set_keywords=tuple(
                (mapping[node], words)
                for node, words in self.set_keywords
                if node in mapping
            ),
        )

    def merge(self, later: "GraphDelta") -> "GraphDelta":
        """The delta equivalent to applying ``self`` then *later*.

        Sound because every entry is absolute: a later assignment to the
        same edge or node simply wins.
        """
        edges: dict[tuple[int, int], tuple[float, float] | None] = {}
        for u, v, obj, bud in self.set_edges:
            edges[(u, v)] = (obj, bud)
        for u, v in self.drop_edges:
            edges[(u, v)] = None
        for u, v, obj, bud in later.set_edges:
            edges[(u, v)] = (obj, bud)
        for u, v in later.drop_edges:
            edges[(u, v)] = None
        keywords: dict[int, tuple[str, ...]] = dict(self.set_keywords)
        keywords.update(dict(later.set_keywords))
        return GraphDelta(
            set_edges=tuple(
                (u, v, weights[0], weights[1])
                for (u, v), weights in sorted(edges.items())
                if weights is not None
            ),
            drop_edges=tuple(
                (u, v) for (u, v), weights in sorted(edges.items()) if weights is None
            ),
            set_keywords=tuple(sorted(keywords.items())),
        )


def apply_graph_delta(
    graph: SpatialKeywordGraph, delta: GraphDelta
) -> SpatialKeywordGraph:
    """A new graph with *delta* applied (lenient, idempotent).

    Copy-on-write (:meth:`SpatialKeywordGraph.with_rows`): only the
    out-rows and keyword sets the delta names are rebuilt — and pass the
    constructor's edge validation — while every other row, the
    (append-only) keyword table, names and coordinates are shared with
    *graph*.  Adjacency order is stable: an updated edge keeps its
    position, a re-created edge appends — so replaying the same delta
    sequence always reproduces the same adjacency (and therefore the
    same search tie-breaking) on every replica.
    """
    if delta.is_empty:
        return graph
    n = graph.num_nodes
    rows: dict[int, list[tuple[int, float, float]]] = {}
    for u, v in delta.drop_edges:
        _check_node(n, u)
        _check_node(n, v)
        out = rows[u] if u in rows else graph.out_edges(u)
        rows[u] = [edge for edge in out if edge[0] != v]
    for u, v, obj, bud in delta.set_edges:
        _check_node(n, u)
        _check_node(n, v)
        if u not in rows:
            rows[u] = list(graph.out_edges(u))
        out = rows[u]
        for position, (target, _o, _b) in enumerate(out):
            if target == v:
                out[position] = (v, obj, bud)
                break
        else:
            out.append((v, obj, bud))
    node_keywords: dict[int, frozenset[int]] = {}
    table = graph.keyword_table
    for node, words in delta.set_keywords:
        _check_node(n, node)
        # Interning in the delta's (sorted, deduplicated) word order keeps
        # fresh ids identical across every replica applying this delta.
        node_keywords[node] = table.intern_many(words)
    return graph.with_rows(rows, node_keywords)


def _check_node(n: int, node: int) -> None:
    if not (isinstance(node, int) and 0 <= node < n):
        raise MutationError(f"node {node!r} is outside the graph's 0..{n - 1} range")


def _normalised_words(words: Iterable[str]) -> tuple[str, ...]:
    """Sorted, deduplicated keyword strings (the canonical delta form)."""
    unique = set()
    for word in words:
        if not isinstance(word, str) or not word:
            raise MutationError(f"keywords must be non-empty strings, got {word!r}")
        unique.add(word)
    return tuple(sorted(unique))


class GraphMutator:
    """Stateful front door over :class:`GraphDelta` resolution.

    Tracks the *current* graph plus the closure set and the latest
    per-edge cost / per-node keyword overrides, so operations validate
    against what the world looks like now and ``open_node`` restores the
    most recently configured state, not the original one.  Mutations
    never grow the world: the node set is fixed and ``set_edges`` only
    ever re-creates edges that existed at construction time (possibly
    with updated costs) — which is what lets a partition computed over
    the base graph stay the unit of repair forever.
    """

    def __init__(self, graph: SpatialKeywordGraph) -> None:
        self._base = graph
        self._graph = graph
        self._closed: set[int] = set()
        #: Latest explicit weights per base edge, surviving closures.
        self._edge_costs: dict[tuple[int, int], tuple[float, float]] = {}
        #: Latest explicit keyword sets per node, surviving closures.
        self._keywords: dict[int, tuple[str, ...]] = {}

    @property
    def graph(self) -> SpatialKeywordGraph:
        """The current (latest-delta-applied) graph."""
        return self._graph

    @property
    def base_graph(self) -> SpatialKeywordGraph:
        """The graph the mutator was constructed over."""
        return self._base

    @property
    def closed_nodes(self) -> frozenset[int]:
        """Nodes currently closed."""
        return frozenset(self._closed)

    # ------------------------------------------------------------------
    # operations
    # ------------------------------------------------------------------
    def update_edge_cost(
        self,
        u: int,
        v: int,
        objective: float | None = None,
        budget: float | None = None,
    ) -> GraphDelta:
        """Re-cost the existing edge ``(u, v)``; unset weights persist."""
        n = self._graph.num_nodes
        _check_node(n, u)
        _check_node(n, v)
        if u in self._closed or v in self._closed:
            raise MutationError(
                f"cannot update edge ({u}, {v}): one of its endpoints is closed"
            )
        if not self._graph.has_edge(u, v):
            raise MutationError(f"no edge ({u}, {v}) to update")
        if objective is None and budget is None:
            raise MutationError("update_edge_cost needs objective=, budget=, or both")
        current_obj, current_bud = self._graph.edge(u, v)
        obj = float(objective) if objective is not None else current_obj
        bud = float(budget) if budget is not None else current_bud
        for name, value in (("objective", obj), ("budget", bud)):
            if not (value > 0.0) or not math.isfinite(value):
                raise MutationError(
                    f"edge ({u}, {v}) {name} must be finite and > 0, got {value}"
                )
            if not MIN_EDGE_WEIGHT <= value <= MAX_EDGE_WEIGHT:
                raise MutationError(
                    f"edge ({u}, {v}) {name} must lie in "
                    f"[{MIN_EDGE_WEIGHT}, {MAX_EDGE_WEIGHT}], got {value}"
                )
        self._edge_costs[(u, v)] = (obj, bud)
        return self._resolve(GraphDelta(set_edges=((u, v, obj, bud),)))

    def close_node(self, node: int) -> GraphDelta:
        """Remove *node* from service: strip its edges and keywords.

        The node id stays valid (the world never renumbers); it simply
        becomes unreachable and keyword-less until :meth:`open_node`.
        """
        _check_node(self._graph.num_nodes, node)
        if node in self._closed:
            raise MutationError(f"node {node} is already closed")
        # Remember the pre-closure keywords unless an explicit override
        # already speaks for this node.
        self._keywords.setdefault(
            node, _normalised_words(self._graph.node_keyword_strings(node))
        )
        drops = [(node, v) for v, _obj, _bud in self._graph.out_edges(node)]
        for u in range(self._graph.num_nodes):
            if u != node and self._graph.has_edge(u, node):
                drops.append((u, node))
        self._closed.add(node)
        return self._resolve(
            GraphDelta(drop_edges=tuple(drops), set_keywords=((node, ()),))
        )

    def open_node(self, node: int) -> GraphDelta:
        """Re-open a closed node, restoring its latest edges and keywords.

        Restores every *base-graph* edge incident to the node whose other
        endpoint is currently open, at the most recently configured
        weights; edges toward still-closed neighbours come back when
        those neighbours re-open.
        """
        _check_node(self._graph.num_nodes, node)
        if node not in self._closed:
            raise MutationError(f"node {node} is not closed")
        self._closed.discard(node)
        restored: list[tuple[int, int, float, float]] = []
        for u, v, obj, bud in self._incident_base_edges(node):
            if u in self._closed or v in self._closed:
                continue
            obj, bud = self._edge_costs.get((u, v), (obj, bud))
            restored.append((u, v, obj, bud))
        words = self._keywords.get(node, ())
        return self._resolve(
            GraphDelta(set_edges=tuple(restored), set_keywords=((node, words),))
        )

    def update_keywords(self, node: int, keywords: Iterable[str]) -> GraphDelta:
        """Replace *node*'s keyword set (open nodes only)."""
        _check_node(self._graph.num_nodes, node)
        if node in self._closed:
            raise MutationError(
                f"cannot update keywords of closed node {node}; open it first"
            )
        words = _normalised_words(keywords)
        self._keywords[node] = words
        return self._resolve(GraphDelta(set_keywords=((node, words),)))

    def apply_op(self, op: Mapping[str, object]) -> GraphDelta:
        """Apply one wire-shaped operation (see :data:`OP_NAMES`)."""
        kind = op.get("op")
        if kind == "update_edge_cost":
            return self.update_edge_cost(
                op["u"], op["v"], objective=op.get("objective"), budget=op.get("budget")
            )
        if kind == "close_node":
            return self.close_node(op["node"])
        if kind == "open_node":
            return self.open_node(op["node"])
        if kind == "update_keywords":
            return self.update_keywords(op["node"], op["keywords"])
        raise MutationError(
            f"unknown mutation op {kind!r}; expected one of {', '.join(OP_NAMES)}"
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _resolve(self, delta: GraphDelta) -> GraphDelta:
        self._graph = apply_graph_delta(self._graph, delta)
        return delta

    def _snapshot(self) -> tuple:
        """Everything an operation can change (graphs are immutable)."""
        return self._graph, set(self._closed), dict(self._edge_costs), dict(self._keywords)

    def _restore(self, snapshot: tuple) -> None:
        self._graph, self._closed, self._edge_costs, self._keywords = snapshot

    def _incident_base_edges(self, node: int):
        for v, obj, bud in self._base.out_edges(node):
            if v != node:
                yield node, v, obj, bud
        for u in range(self._base.num_nodes):
            if u != node and self._base.has_edge(u, node):
                obj, bud = self._base.edge(u, node)
                yield u, node, obj, bud


def resolve_ops(
    mutator: GraphMutator, ops: Sequence[Mapping[str, object]]
) -> GraphDelta:
    """Resolve a sequence of operations into one merged delta.

    Validation is sequential (each op sees its predecessors applied);
    the merged result is equivalent to applying the ops in order because
    every delta entry is absolute.  All or nothing: when any op is
    refused the mutator is put back exactly as the batch found it, so the
    graph never runs ahead of tables that were not repaired.
    """
    before = mutator._snapshot()
    merged = GraphDelta()
    try:
        for op in ops:
            merged = merged.merge(mutator.apply_op(op))
    except BaseException:
        mutator._restore(before)
        raise
    return merged
