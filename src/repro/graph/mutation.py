"""Live graph mutation: the stateful mutator and the delta it reports.

:class:`~repro.graph.digraph.SpatialKeywordGraph` is immutable by
design — pre-processing caches CSR exports and weight extrema against
it.  A *dynamic* world therefore mutates by **replacement**:
:class:`GraphMutator` validates each operation — ``update_edge_cost`` /
``close_node`` / ``open_node`` / ``update_keywords`` — against the
*current* graph and derives the next graph from the rows it names
(:meth:`SpatialKeywordGraph.with_rows`), sharing every other row and the
append-only :class:`~repro.graph.keywords.KeywordTable`.  It remembers
enough history (cost overrides, closure set) that re-opening a node
restores its most recently configured edges and keywords.

:func:`resolve_ops` applies a batch all or nothing and reports what it
changed as a :class:`GraphDelta`: the edges set or dropped and the nodes
whose keywords were replaced.  Everything downstream reads the new graph
itself; the delta only says where to look.
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
    """What one accepted batch changed.

    ``edges`` holds every ``(u, v)`` the batch set or dropped, sorted;
    ``keywords`` holds ``(node, words)`` keyword-set replacements, sorted
    by node, with ``words`` the sorted keyword strings.
    """

    edges: tuple[tuple[int, int], ...] = ()
    keywords: tuple[tuple[int, tuple[str, ...]], ...] = ()


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
    """Stateful front door: validates and applies graph operations.

    Tracks the *current* graph plus the closure set and the latest
    per-edge cost / per-node keyword overrides, so operations validate
    against what the world looks like now and ``open_node`` restores the
    most recently configured state, not the original one.  Mutations
    never grow the world: the node set is fixed and an edge is only ever
    re-created where it existed at construction time (possibly with
    updated costs) — which is what lets a partition computed over the
    base graph stay the unit of repair forever.
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
        """The current (latest-batch-applied) graph."""
        return self._graph

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
        return self.apply_op(
            {"op": "update_edge_cost", "u": u, "v": v, "objective": objective, "budget": budget}
        )

    def close_node(self, node: int) -> GraphDelta:
        """Remove *node* from service: strip its edges and keywords.

        The node id stays valid (the world never renumbers); it simply
        becomes unreachable and keyword-less until :meth:`open_node`.
        """
        return self.apply_op({"op": "close_node", "node": node})

    def open_node(self, node: int) -> GraphDelta:
        """Re-open a closed node, restoring its latest edges and keywords.

        Restores every *base-graph* edge incident to the node whose other
        endpoint is currently open, at the most recently configured
        weights; edges toward still-closed neighbours come back when
        those neighbours re-open.
        """
        return self.apply_op({"op": "open_node", "node": node})

    def update_keywords(self, node: int, keywords: Iterable[str]) -> GraphDelta:
        """Replace *node*'s keyword set (open nodes only)."""
        return self.apply_op({"op": "update_keywords", "node": node, "keywords": keywords})

    def apply_op(self, op: Mapping[str, object]) -> GraphDelta:
        """Apply one wire-shaped operation (see :data:`OP_NAMES`)."""
        return resolve_ops(self, [op])

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _step(self, op: Mapping[str, object]) -> tuple[dict, dict]:
        """Validate *op* against the current state and record it.

        Returns its edge changes — ``(u, v)`` to new weights, or ``None``
        for a drop — and its keyword replacements; :func:`resolve_ops`
        applies both.
        """
        kind = op.get("op")
        if kind == "update_edge_cost":
            return self._update_edge_cost(op["u"], op["v"], op.get("objective"), op.get("budget"))
        if kind == "close_node":
            return self._close_node(op["node"])
        if kind == "open_node":
            return self._open_node(op["node"])
        if kind == "update_keywords":
            return self._update_keywords(op["node"], op["keywords"])
        raise MutationError(
            f"unknown mutation op {kind!r}; expected one of {', '.join(OP_NAMES)}"
        )

    def _update_edge_cost(
        self, u: int, v: int, objective: float | None, budget: float | None
    ) -> tuple[dict, dict]:
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
        return {(u, v): (obj, bud)}, {}

    def _close_node(self, node: int) -> tuple[dict, dict]:
        _check_node(self._graph.num_nodes, node)
        if node in self._closed:
            raise MutationError(f"node {node} is already closed")
        # Remember the pre-closure keywords unless an explicit override
        # already speaks for this node.
        self._keywords.setdefault(
            node, _normalised_words(self._graph.node_keyword_strings(node))
        )
        drops = {(node, v): None for v, _obj, _bud in self._graph.out_edges(node)}
        for u in range(self._graph.num_nodes):
            if u != node and self._graph.has_edge(u, node):
                drops[(u, node)] = None
        self._closed.add(node)
        return drops, {node: ()}

    def _open_node(self, node: int) -> tuple[dict, dict]:
        _check_node(self._graph.num_nodes, node)
        if node not in self._closed:
            raise MutationError(f"node {node} is not closed")
        self._closed.discard(node)
        restored = {}
        for u, v, obj, bud in self._incident_base_edges(node):
            if u not in self._closed and v not in self._closed:
                restored[(u, v)] = self._edge_costs.get((u, v), (obj, bud))
        return restored, {node: self._keywords.get(node, ())}

    def _update_keywords(self, node: int, keywords: Iterable[str]) -> tuple[dict, dict]:
        _check_node(self._graph.num_nodes, node)
        if node in self._closed:
            raise MutationError(
                f"cannot update keywords of closed node {node}; open it first"
            )
        words = _normalised_words(keywords)
        self._keywords[node] = words
        return {}, {node: words}

    def _edit_rows(self, changes: Mapping[tuple[int, int], tuple[float, float] | None]) -> None:
        """Set (weights) or drop (``None``) each edge of *changes*.

        The one adjacency rule: an updated edge keeps its position in its
        out-row, a re-created edge is appended to it.  Search tie-breaking
        follows adjacency order, so every graph a batch derives — the
        world's cell subgraphs included — inherits this order.
        """
        rows: dict[int, list[tuple[int, float, float]]] = {}
        for (u, v), weights in changes.items():
            if u not in rows:
                rows[u] = list(self._graph.out_edges(u))
            row = rows[u]
            position = next((i for i, (target, _o, _b) in enumerate(row) if target == v), None)
            if weights is None:
                del row[position]  # an op drops only edges it found
            elif position is None:
                row.append((v, *weights))
            else:
                row[position] = (v, *weights)
        self._graph = self._graph.with_rows(rows)

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
    """Apply a non-empty batch of operations to *mutator*, in order.

    Each op is validated against its predecessors' effects and its edges
    are applied before the next op is read.  All or nothing: when any op
    is refused the mutator is put back exactly as the batch found it, so
    the graph never runs ahead of tables that were not repaired.  The
    batch's keyword sets are interned and applied last, once every op is
    accepted, so a refused batch interns no word into the keyword table
    the graph shares with its callers.  (An op reads a node's keywords
    from the graph only where no earlier op of the batch has set them.)
    An empty batch changes nothing and is refused.
    """
    if not ops:
        raise MutationError("an update needs at least one op")
    before = mutator._snapshot()
    edges: set[tuple[int, int]] = set()
    keywords: dict[int, tuple[str, ...]] = {}
    try:
        for op in ops:
            changes, words = mutator._step(op)
            if changes:
                mutator._edit_rows(changes)
            edges.update(changes)
            keywords.update(words)
        keywords = dict(sorted(keywords.items()))
        if keywords:
            table = mutator._graph.keyword_table
            mutator._graph = mutator._graph.with_rows(
                {}, {node: table.intern_many(words) for node, words in keywords.items()}
            )
    except BaseException:
        mutator._restore(before)
        raise
    return GraphDelta(edges=tuple(sorted(edges)), keywords=tuple(keywords.items()))
