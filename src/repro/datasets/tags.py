"""Synthetic tag vocabularies with Zipf-distributed popularity.

The paper's Flickr dataset carries 9,785 distinct tags whose usage is —
like all folksonomies — heavily skewed.  We synthesise a vocabulary of the
same flavour: a head of recognisable POI-style words (so examples read
like the paper's "jazz, imax, vegetation, Cappuccino" query) followed by
generated pseudo-words, with sampling weights following a Zipf law.
"""

from __future__ import annotations

import numpy as np

from repro.exceptions import DatasetError

__all__ = ["TagVocabulary", "POI_WORDS"]

#: Head words mirroring the paper's example queries and motivating scenario.
POI_WORDS: tuple[str, ...] = (
    "restaurant", "pub", "shopping-mall", "jazz", "imax", "vegetarian",
    "cappuccino", "museum", "park", "theatre", "gallery", "bakery",
    "sushi", "pizza", "ramen", "steakhouse", "cocktails", "brewery",
    "bookstore", "arcade", "aquarium", "zoo", "opera", "cathedral",
    "skyline", "bridge", "harbour", "market", "foodtruck", "noodles",
    "karaoke", "spa", "rooftop", "speakeasy", "diner", "brunch",
    "espresso", "gelato", "donuts", "bbq",
)

_SYLLABLES = (
    "ka", "ri", "to", "mo", "se", "lu", "an", "pe", "vi", "zo",
    "ne", "ba", "ku", "sha", "el", "or", "mi", "ta", "fo", "gri",
)


class TagVocabulary:
    """A fixed list of tags plus Zipf sampling weights.

    ``exponent`` is the Zipf skew ``s`` in ``weight(rank) ~ rank^-s``;
    1.0 approximates folksonomy tag usage well.
    """

    def __init__(self, num_tags: int = 9785, exponent: float = 1.0, seed: int = 0) -> None:
        if num_tags < 1:
            raise DatasetError(f"num_tags must be >= 1, got {num_tags}")
        if exponent <= 0:
            raise DatasetError(f"Zipf exponent must be > 0, got {exponent}")
        self._words = _generate_words(num_tags)
        ranks = np.arange(1, num_tags + 1, dtype=np.float64)
        weights = ranks**-exponent
        self._probabilities = weights / weights.sum()
        # The CDF numpy's ``choice(p=...)`` rebuilds on every call; built
        # once, with the same arithmetic, so a draw is one searchsorted.
        self._cdf = self._probabilities.cumsum()
        self._cdf /= self._cdf[-1]
        self._rng = np.random.default_rng(seed)

    @property
    def words(self) -> tuple[str, ...]:
        """All tags, most popular first."""
        return self._words

    @property
    def probabilities(self) -> np.ndarray:
        """Zipf sampling probability of each tag (aligned with words)."""
        return self._probabilities

    def __len__(self) -> int:
        return len(self._words)

    def sample(self, count: int, rng: np.random.Generator | None = None) -> list[str]:
        """Draw *count* distinct tags, popularity-weighted.

        The tags, and the generator's state afterwards, are those of
        ``rng.choice(len(self), size=count, replace=False, p=self.probabilities)``,
        whose first round draws *count* doubles from the CDF.
        """
        if count < 0:
            raise DatasetError(f"cannot sample a negative number of tags, got {count}")
        rng = rng if rng is not None else self._rng
        count = min(count, len(self._words))
        state = rng.bit_generator.state
        chosen = self._cdf.searchsorted(rng.random(count), side="right").tolist()
        if len(set(chosen)) < count:
            # A repeat: numpy redraws from the mass left over, in rounds;
            # replay the whole call from the same state.
            rng.bit_generator.state = state
            chosen = rng.choice(
                len(self._words), size=count, replace=False, p=self._probabilities
            ).tolist()
        return [self._words[i] for i in chosen]

    def sample_one(self, rng: np.random.Generator | None = None) -> str:
        """Draw a single popularity-weighted tag (what ``rng.choice(len(self),
        p=self.probabilities)`` draws)."""
        rng = rng if rng is not None else self._rng
        return self._words[int(self._cdf.searchsorted(rng.random(), side="right"))]


def _generate_words(num_tags: int) -> tuple[str, ...]:
    """POI head words first, then deterministic pseudo-words."""
    words: list[str] = list(POI_WORDS[:num_tags])
    needed = num_tags - len(words)
    if needed <= 0:
        return tuple(words)
    syllables = _SYLLABLES
    base = len(syllables)
    for i in range(needed):
        # Mixed-radix expansion over syllables gives unique pronounceable
        # words: "kari", "kato", ... with a numeric suffix beyond 3 parts.
        n, parts = i, []
        for _ in range(3):
            parts.append(syllables[n % base])
            n //= base
        word = "".join(parts)
        if n:
            word = f"{word}{n}"
        words.append(word)
    return tuple(words)
