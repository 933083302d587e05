"""KOR query objects and query-time keyword binding.

A :class:`KORQuery` (Definition 4) is ``<vs, vt, psi, Delta>``.  Before a
search runs, the query keywords are *bound* against the graph: each query
keyword becomes one bit of a bitmask, and the inverted index's postings
are ORed into one dense coverage mask per node.
Label keyword sets (``L.lambda`` in the paper) are then plain integers,
making Definition 6's ``lambda superset`` test a single ``&`` operation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.exceptions import QueryError
from repro.graph.digraph import SpatialKeywordGraph
from repro.index.inverted import InvertedIndex

__all__ = ["KORQuery", "QueryBinding"]


@dataclass(frozen=True)
class KORQuery:
    """The keyword-aware optimal route query ``<vs, vt, psi, Delta>``.

    ``keywords`` may be empty, in which case KOR degenerates to the
    weight-constrained shortest path problem the paper reduces from.
    """

    source: int
    target: int
    keywords: tuple[str, ...]
    budget_limit: float

    def __init__(
        self,
        source: int,
        target: int,
        keywords: Iterable[str],
        budget_limit: float,
    ) -> None:
        object.__setattr__(self, "source", int(source))
        object.__setattr__(self, "target", int(target))
        # Deduplicate while preserving order, so bit positions are stable.
        seen: dict[str, None] = {}
        for word in keywords:
            if not isinstance(word, str) or not word:
                raise QueryError(f"query keywords must be non-empty strings, got {word!r}")
            seen.setdefault(word)
        object.__setattr__(self, "keywords", tuple(seen))
        object.__setattr__(self, "budget_limit", float(budget_limit))
        if not self.budget_limit > 0:
            raise QueryError(f"budget limit must be > 0, got {budget_limit}")

    @property
    def num_keywords(self) -> int:
        """``m = |psi|`` — the exponent in the paper's complexity bounds."""
        return len(self.keywords)


@dataclass
class QueryBinding:
    """A query resolved against one particular graph.

    Attributes
    ----------
    query:
        The bound query.
    keyword_ids:
        Interned id of each query keyword, aligned with bit positions;
        ``None`` for keywords absent from the graph's vocabulary.
    full_mask:
        ``(1 << m) - 1`` — a label covering the query carries this mask.
    masks:
        Dense per-node coverage bitmasks, one entry per node (0 for nodes
        carrying no query keyword): ``int64`` below 64 keywords, Python
        ints in an ``object`` array from 64 on.
    node_masks:
        ``masks`` as a plain list of Python ints, which a label search
        reads once per label it creates: 11-19 ns a read, against ~52 ns
        for a numpy scalar.  A list, unlike a memoryview, pickles.
    nodes_with_bit:
        Per bit position, the posting list of nodes carrying that keyword.
    """

    query: KORQuery
    keyword_ids: list[int | None]
    full_mask: int
    masks: np.ndarray = field(repr=False)
    node_masks: list[int] = field(repr=False)
    nodes_with_bit: list[np.ndarray] = field(repr=False)

    @classmethod
    def bind(
        cls,
        graph: SpatialKeywordGraph,
        index: InvertedIndex,
        query: KORQuery,
        candidates: Mapping[int, np.ndarray] | None = None,
    ) -> "QueryBinding":
        """Resolve *query* against *graph* using the inverted *index*.

        ``candidates`` optionally maps keyword ids to their posting lists
        (the shared candidate sets an ``index.candidate_sets`` call over a
        whole batch produces); ids present there are taken as-is and the
        index is only consulted for the rest.  This is how the serving
        layer amortises per-keyword index work across a query stream.
        """
        n = graph.num_nodes
        if not (0 <= query.source < n):
            raise QueryError(f"source node {query.source} is outside 0..{n - 1}")
        if not (0 <= query.target < n):
            raise QueryError(f"target node {query.target} is outside 0..{n - 1}")

        keyword_ids: list[int | None] = []
        nodes_with_bit: list[np.ndarray] = []
        # Keyword masks fit int64 below 64 keywords; Python ints beyond.
        masks = np.zeros(n, dtype=np.int64 if len(query.keywords) < 64 else object)
        for bit, word in enumerate(query.keywords):
            kid = graph.keyword_table.get(word)
            keyword_ids.append(kid)
            if kid is None:
                postings = np.empty(0, dtype=np.int64)
            elif candidates is not None and kid in candidates:
                postings = candidates[kid]
            else:
                postings = index.postings(kid)
            nodes_with_bit.append(postings)
            masks[postings] |= 1 << bit

        return cls(
            query=query,
            keyword_ids=keyword_ids,
            full_mask=(1 << len(query.keywords)) - 1,
            masks=masks,
            node_masks=masks.tolist(),
            nodes_with_bit=nodes_with_bit,
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def node_mask(self, node: int) -> int:
        """Bitmask of query keywords carried by *node* (0 for most nodes)."""
        return self.node_masks[node]

    @property
    def missing_keywords(self) -> tuple[str, ...]:
        """Query keywords that occur on no node — the query is then infeasible."""
        return tuple(
            word
            for word, postings in zip(self.query.keywords, self.nodes_with_bit)
            if len(postings) == 0
        )

    @property
    def vocabulary_feasible(self) -> bool:
        """False when some query keyword occurs nowhere in the graph."""
        return not self.missing_keywords

    def uncovered_bits(self, mask: int) -> list[int]:
        """Bit positions still missing from *mask*."""
        missing = self.full_mask & ~mask
        return [bit for bit in range(len(self.query.keywords)) if missing & (1 << bit)]

    def mask_to_words(self, mask: int) -> frozenset[str]:
        """Human-readable keyword set for a coverage bitmask."""
        return frozenset(word for bit, word in enumerate(self.query.keywords) if mask & (1 << bit))
