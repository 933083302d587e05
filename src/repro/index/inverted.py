"""In-memory inverted file over node keywords.

The paper's index (Section 3.1) has two components: a vocabulary and one
posting list per word holding the ids of the nodes whose description
contains the word.  The paper makes it disk resident via a B+-tree; here
the posting lists are numpy arrays in a dict.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.graph.digraph import SpatialKeywordGraph
from repro.index.vocabulary import Vocabulary

__all__ = ["InvertedIndex"]

_EMPTY = np.empty(0, dtype=np.int64)


class InvertedIndex:
    """Keyword-id -> sorted node-id posting lists, held in memory."""

    def __init__(self, postings: dict[int, np.ndarray], vocabulary: Vocabulary) -> None:
        self._postings = postings
        self._vocabulary = vocabulary

    @classmethod
    def from_graph(cls, graph: SpatialKeywordGraph) -> "InvertedIndex":
        """Build the index by one pass over the graph's nodes."""
        lists: dict[int, list[int]] = {}
        for u in range(graph.num_nodes):
            for kid in graph.node_keywords(u):
                lists.setdefault(kid, []).append(u)
        postings = {kid: np.asarray(nodes, dtype=np.int64) for kid, nodes in lists.items()}
        return cls(postings, Vocabulary(graph))

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    @property
    def vocabulary(self) -> Vocabulary:
        """Document-frequency statistics backing Strategy 2."""
        return self._vocabulary

    def postings(self, keyword_id: int) -> np.ndarray:
        """Sorted node ids containing *keyword_id* (empty when absent)."""
        return self._postings.get(keyword_id, _EMPTY)

    def document_frequency(self, keyword_id: int) -> int:
        """Posting-list length of *keyword_id*."""
        return len(self.postings(keyword_id))

    def candidate_sets(self, keyword_ids: Iterable[int]) -> dict[int, np.ndarray]:
        """Posting list per keyword id, fetched once per distinct id.

        A batch of queries collects the union of its keyword ids, resolves
        them in a single call, and every query binding then reuses the
        returned map instead of hitting the index again
        (``QueryBinding.bind``'s ``candidates`` argument).  Absent keywords
        map to empty arrays so callers can distinguish "looked up, nowhere"
        from "not looked up".
        """
        return {kid: self.postings(kid) for kid in dict.fromkeys(keyword_ids)}

    def __len__(self) -> int:
        return len(self._postings)
