"""Live graph mutation: the stateful mutator and the delta it reports.

:class:`~repro.graph.digraph.SpatialKeywordGraph` is immutable by
design — pre-processing caches CSR exports and weight extrema against
it.  A *dynamic* world therefore mutates by **replacement**:
:meth:`GraphMutator.apply_ops` validates each operation of a batch —
``update_edge_cost`` / ``close_node`` / ``open_node`` /
``update_keywords`` — against the *current* graph and derives the next
graph from the rows it names (:meth:`SpatialKeywordGraph.with_rows`),
sharing every other row and the append-only
:class:`~repro.graph.keywords.KeywordTable`.  It remembers enough
history (cost overrides, closure set) that re-opening a node restores
its most recently configured edges and keywords.

A batch applies all or nothing and reports what it changed as a
:class:`GraphDelta`: the edges set or dropped and the nodes whose
keywords were replaced.  Everything downstream reads the new graph
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
]

#: Operation names accepted by :meth:`GraphMutator.apply_ops` (the wire-level set).
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

    def apply_ops(self, ops: Sequence[Mapping[str, object]]) -> GraphDelta:
        """Apply a non-empty batch of wire-shaped operations, in order.

        Each op is validated against its predecessors' effects and its
        edges are applied before the next op is read.  Field types follow
        the wire's ``kor.graph_update.v1`` rules: the batch is a list (or
        tuple), a node id an ``int`` (``True`` is not node 1), a weight a
        finite ``int`` or ``float`` (absent or ``None`` keeps the edge's
        current one), keywords a list (or tuple) of non-empty strings —
        never a bare ``str``.  All or nothing: when any op is refused the
        mutator is put back exactly as the batch found it, so the graph
        never runs ahead of tables that were not repaired.  The batch's
        keyword sets are interned and applied last, once every op is
        accepted, so a refused batch interns no word into the keyword
        table the graph shares with its callers.  (An op reads a node's
        keywords from the graph only where no earlier op of the batch has
        set them.)  An empty batch changes nothing and is refused.
        """
        if not isinstance(ops, (list, tuple)) or not ops:
            raise MutationError(f"an update needs at least one op, in a list; got {ops!r}")
        before = self._snapshot()
        edges: set[tuple[int, int]] = set()
        keywords: dict[int, tuple[str, ...]] = {}
        try:
            for op in ops:
                changes, words = self._step(op)
                if changes:
                    self._edit_rows(changes)
                edges.update(changes)
                keywords.update(words)
            keywords = dict(sorted(keywords.items()))
            if keywords:
                table = self._graph.keyword_table
                self._graph = self._graph.with_rows(
                    {}, {node: table.intern_many(words) for node, words in keywords.items()}
                )
        except BaseException:
            self._restore(before)
            raise
        return GraphDelta(edges=tuple(sorted(edges)), keywords=tuple(keywords.items()))

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _step(self, op: object) -> tuple[dict, dict]:
        """Validate *op* against the current state and record it.

        Returns its edge changes — ``(u, v)`` to new weights, or ``None``
        for a drop — and its keyword replacements; :meth:`apply_ops`
        applies both.
        """
        if not isinstance(op, Mapping):
            raise MutationError(f"an op must be a mapping, got {op!r}")
        kind = op.get("op")
        if kind == "update_edge_cost":
            u, v = self._node(op, "u"), self._node(op, "v")
            return self._update_edge_cost(u, v, op.get("objective"), op.get("budget"))
        if kind == "close_node":
            return self._close_node(self._node(op, "node"))
        if kind == "open_node":
            return self._open_node(self._node(op, "node"))
        if kind == "update_keywords":
            return self._update_keywords(self._node(op, "node"), op.get("keywords"))
        raise MutationError(f"unknown mutation op {kind!r}; expected one of {', '.join(OP_NAMES)}")

    def _node(self, op: Mapping[str, object], field: str) -> int:
        """``op[field]`` as a node id of the current graph."""
        if field not in op:
            raise MutationError(f"{op['op']} needs {field!r}")
        node, n = op[field], self._graph.num_nodes
        if type(node) is not int or not 0 <= node < n:
            raise MutationError(f"{field} {node!r} is outside the graph's 0..{n - 1} node ids")
        return node

    def _update_edge_cost(
        self, u: int, v: int, objective: float | None, budget: float | None
    ) -> tuple[dict, dict]:
        if u in self._closed or v in self._closed:
            raise MutationError(f"cannot update edge ({u}, {v}): one of its endpoints is closed")
        if not self._graph.has_edge(u, v):
            raise MutationError(f"no edge ({u}, {v}) to update")
        if objective is None and budget is None:
            raise MutationError("update_edge_cost needs objective=, budget=, or both")
        weights = []
        for name, value, current in zip(
            ("objective", "budget"), (objective, budget), self._graph.edge(u, v)
        ):
            if value is None:
                value = current
            elif type(value) not in (int, float):  # the wire's rule: no bool, no "2"
                raise MutationError(f"edge ({u}, {v}) {name} must be a number, got {value!r}")
            if not value > 0 or value == math.inf:
                raise MutationError(f"edge ({u}, {v}) {name} must be finite and > 0, got {value!r}")
            if not MIN_EDGE_WEIGHT <= value <= MAX_EDGE_WEIGHT:
                raise MutationError(
                    f"edge ({u}, {v}) {name} must lie in "
                    f"[{MIN_EDGE_WEIGHT}, {MAX_EDGE_WEIGHT}], got {value}"
                )
            weights.append(float(value))
        self._edge_costs[(u, v)] = costs = tuple(weights)
        return {(u, v): costs}, {}

    def _close_node(self, node: int) -> tuple[dict, dict]:
        """Strip *node*'s edges and keywords; its id stays valid (the
        world never renumbers) until ``open_node`` restores them."""
        if node in self._closed:
            raise MutationError(f"node {node} is already closed")
        # Remember the pre-closure keywords unless an explicit override
        # already speaks for this node.
        self._keywords.setdefault(node, _normalised_words(self._graph.node_keyword_strings(node)))
        drops = {(node, v): None for v, _obj, _bud in self._graph.out_edges(node)}
        for u in range(self._graph.num_nodes):
            if u != node and self._graph.has_edge(u, node):
                drops[(u, node)] = None
        self._closed.add(node)
        return drops, {node: ()}

    def _open_node(self, node: int) -> tuple[dict, dict]:
        """Restore every base edge of *node* whose other endpoint is open,
        at its latest weights, and its latest keywords."""
        if node not in self._closed:
            raise MutationError(f"node {node} is not closed")
        self._closed.discard(node)
        restored = {}
        for u, v, obj, bud in self._incident_base_edges(node):
            if u not in self._closed and v not in self._closed:
                restored[(u, v)] = self._edge_costs.get((u, v), (obj, bud))
        return restored, {node: self._keywords.get(node, ())}

    def _update_keywords(self, node: int, keywords: object) -> tuple[dict, dict]:
        if node in self._closed:
            raise MutationError(f"cannot update keywords of closed node {node}; open it first")
        if not isinstance(keywords, (list, tuple)):  # a str would split into letters
            raise MutationError(f"keywords must be a list of non-empty strings, got {keywords!r}")
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

