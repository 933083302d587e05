"""Node labels, domination and label stores (Definitions 5-8).

A label represents one partial route from the query source to some node,
carrying the covered query-keyword mask ``lambda``, the scaled objective
score ``OS_hat``, the true objective score ``OS`` and the budget score
``BS``.  Labels chain back to their parents so the final route can be
materialised without storing node sequences during the search.

Domination (Definition 6) is the pruning workhorse: ``L`` dominates ``L'``
at the same node iff ``L.lambda`` is a superset of ``L'.lambda`` and both
scores are no larger.  Each node keeps only non-dominated labels, grouped
by mask so the superset test is a bitwise ``&`` over the few distinct
masks present.  The top-k extension (Section 3.5) relaxes this to
*k-domination*: a label is discarded only when at least ``k`` stored
labels dominate it.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator

__all__ = ["Label", "LabelStore", "dominates_scores", "label_sort_key"]

#: How a label came to exist; "jump" labels are Optimisation Strategy 1's
#: shortcut along a sigma path, expanded during route materialisation.
VIA_ROOT = 0
VIA_EDGE = 1
VIA_JUMP = 2

_seq_counter = itertools.count()


def dominates_scores(
    dominator_scaled_os: float, dominator_bs: float, scaled_os: float, bs: float
) -> bool:
    """Definition 6's score half: both scores no larger (``<=``, not ``<``).

    This is *the* canonical comparator: every domination site calls it.
    Two independent non-strict compares, no lexicographic short-circuit,
    so a label with equal scaled score and equal budget dominates (and is
    dominated by) its twin — neither the store nor a search can keep a
    duplicate the other would drop.
    """
    return dominator_scaled_os <= scaled_os and dominator_bs <= bs


class Label:
    """One partial route (Definition 5), plus search bookkeeping."""

    __slots__ = ("node", "mask", "scaled_os", "os", "bs", "parent", "via", "alive", "seq")

    def __init__(
        self,
        node: int,
        mask: int,
        scaled_os: float,
        os: float,
        bs: float,
        parent: "Label | None" = None,
        via: int = VIA_EDGE,
    ) -> None:
        self.node = node
        self.mask = mask
        self.scaled_os = scaled_os
        self.os = os
        self.bs = bs
        self.parent = parent
        self.via = via
        #: Cleared when a store evicts the label; the priority queues use
        #: lazy deletion and skip dead labels on pop.
        self.alive = True
        #: Monotonic tie-breaker making the label order total (the paper
        #: breaks ties "by alphabetical order", i.e. arbitrarily but
        #: deterministically; creation order achieves the same).
        self.seq = next(_seq_counter)

    # ------------------------------------------------------------------
    def dominates(self, other: "Label") -> bool:
        """Definition 6: superset keywords, both scores no larger."""
        return (self.mask & other.mask) == other.mask and dominates_scores(
            self.scaled_os, self.bs, other.scaled_os, other.bs
        )

    def chain_nodes(self) -> list[tuple[int, int]]:
        """``(node, via)`` pairs from the root to this label, in order."""
        chain: list[tuple[int, int]] = []
        label: Label | None = self
        while label is not None:
            chain.append((label.node, label.via))
            label = label.parent
        chain.reverse()
        return chain

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Label(node={self.node}, mask={self.mask:b}, "
            f"os_hat={self.scaled_os}, os={self.os}, bs={self.bs})"
        )


def label_sort_key(label: Label) -> tuple[int, float, float, int]:
    """Definition 8's label order as a sortable key.

    Lower key = lower order = dequeued first: more covered keywords first,
    then smaller scaled objective, then smaller budget, then creation order.
    """
    return (-label.mask.bit_count(), label.scaled_os, label.bs, label.seq)


class LabelStore:
    """Per-node sets of non-dominated labels.

    ``k`` generalises domination for the KkR extension: a candidate is
    rejected when at least ``k`` stored labels dominate it, and a stored
    label is evicted when newly inserted labels bring its dominator count
    to ``k``.  ``k=1`` is exactly Definition 6.
    """

    def __init__(self, num_nodes: int, k: int = 1) -> None:
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        self._k = k
        # node -> mask -> list of labels with that exact mask.
        self._by_node: list[dict[int, list[Label]] | None] = [None] * num_nodes
        self._size = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._size

    def labels_at(self, node: int) -> Iterator[Label]:
        """Iterate the live labels stored at *node*."""
        groups = self._by_node[node]
        if groups:
            for labels in groups.values():
                yield from labels

    def is_dominated(self, candidate: Label) -> bool:
        """Whether >= k stored labels at the candidate's node dominate it."""
        groups = self._by_node[candidate.node]
        if not groups:
            return False
        needed = self._k
        mask = candidate.mask
        for stored_mask, labels in groups.items():
            if (stored_mask & mask) != mask:
                continue
            for stored in labels:
                if dominates_scores(stored.scaled_os, stored.bs, candidate.scaled_os, candidate.bs):
                    needed -= 1
                    if needed == 0:
                        return True
        return False

    def insert(self, label: Label, on_evict: Callable[[Label], None] | None = None) -> None:
        """Store *label* and evict stored labels it (k-)dominates.

        The caller is expected to have checked :meth:`is_dominated` first
        (Algorithm 1 line 10).  Evicted labels have ``alive`` cleared so
        the priority queues drop them lazily; *on_evict* observes each.
        """
        groups = self._by_node[label.node]
        if groups is None:
            groups = {}
            self._by_node[label.node] = groups

        mask = label.mask
        if self._k == 1:
            # Fast path: remove every stored label the newcomer dominates.
            for stored_mask in list(groups):
                if (mask & stored_mask) != stored_mask:
                    continue
                labels = groups[stored_mask]
                kept = [
                    stored
                    for stored in labels
                    if not dominates_scores(label.scaled_os, label.bs, stored.scaled_os, stored.bs)
                ]
                if len(kept) != len(labels):
                    for stored in labels:
                        if stored not in kept:
                            stored.alive = False
                            self._size -= 1
                            if on_evict is not None:
                                on_evict(stored)
                    if kept:
                        groups[stored_mask] = kept
                    else:
                        del groups[stored_mask]
        else:
            # k-domination: eviction requires k dominators among stored
            # labels *plus* the newcomer; recount lazily per victim.
            for stored_mask in list(groups):
                if (mask & stored_mask) != stored_mask:
                    continue
                labels = groups[stored_mask]
                kept: list[Label] = []
                for stored in labels:
                    if label.dominates(stored) and self._count_dominators(stored) + 1 >= self._k:
                        # Counting the newcomer, the stored label is now
                        # dominated by >= k labels; evict it.
                        stored.alive = False
                        self._size -= 1
                        if on_evict is not None:
                            on_evict(stored)
                    else:
                        kept.append(stored)
                if kept:
                    groups[stored_mask] = kept
                else:
                    del groups[stored_mask]

        groups.setdefault(mask, []).append(label)
        self._size += 1

    # ------------------------------------------------------------------
    def _count_dominators(self, label: Label) -> int:
        """Number of stored labels (excluding itself) dominating *label*."""
        groups = self._by_node[label.node]
        if not groups:
            return 0
        count = 0
        for stored_mask, labels in groups.items():
            if (stored_mask & label.mask) != label.mask:
                continue
            for stored in labels:
                if stored is label:
                    continue
                if dominates_scores(stored.scaled_os, stored.bs, label.scaled_os, label.bs):
                    count += 1
        return count
