"""Inverted file (paper Section 3.1): vocabulary + posting lists, in memory.

The paper keeps the inverted file on disk under a B+-tree; none of its
results depend on that storage, so :class:`InvertedIndex` holds the
posting lists in memory.
"""

from repro.index.inverted import InvertedIndex
from repro.index.vocabulary import TermStats, Vocabulary

__all__ = ["InvertedIndex", "TermStats", "Vocabulary"]
