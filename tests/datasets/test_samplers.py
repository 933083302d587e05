"""Cached-CDF samplers against the ``rng.choice`` calls they replace.

The dataset generators draw tags and hotspot hops from CDFs built once
instead of letting ``Generator.choice(p=...)`` validate ``p`` and re-take
its cumulative sum on every call.  That is only sound if each draw
returns what ``rng.choice`` returns from the same state *and* leaves the
bit generator where ``rng.choice`` leaves it — every later draw of a
dataset build depends on it.  Each case runs a cached sampler and its
reference on twin generators over 200 seeds and compares the results and
the next ``rng.random()``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.photos import _hop_cdf, _next_hotspot
from repro.datasets.tags import TagVocabulary
from repro.exceptions import DatasetError

SEEDS = range(200)

DEFAULT = TagVocabulary()
#: Eight tags: a draw of six or more nearly always repeats an index in
#: numpy's first round, so its rejection rounds run.
SMALL = TagVocabulary(num_tags=8, seed=3)


def twins(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    return np.random.default_rng(seed), np.random.default_rng(seed)


def reference_sample(vocabulary: TagVocabulary, count: int, rng) -> list[str]:
    chosen = rng.choice(
        len(vocabulary),
        size=min(count, len(vocabulary)),
        replace=False,
        p=vocabulary.probabilities,
    )
    return [vocabulary.words[int(i)] for i in chosen]


def reference_sample_one(vocabulary: TagVocabulary, rng) -> str:
    return vocabulary.words[int(rng.choice(len(vocabulary), p=vocabulary.probabilities))]


def reference_hop(current: int, centers, popularity, rng) -> int:
    """The hop draw before its CDF was cached: ``rng.choice`` on fresh weights."""
    deltas = centers - centers[current]
    distance = np.sqrt((deltas**2).sum(axis=1))
    weights = popularity * np.exp(-distance / 1.5)
    weights[current] = 0.0
    total = weights.sum()
    if total <= 0:
        return int(rng.integers(len(centers)))
    return int(rng.choice(len(centers), p=weights / total))


class TestVocabularySample:
    @pytest.mark.parametrize(
        "vocabulary, count",
        [
            (DEFAULT, 0),
            (DEFAULT, 1),
            (DEFAULT, 3),
            (DEFAULT, 12),
            (SMALL, 6),
            (SMALL, 7),
            (SMALL, 8),
            (SMALL, 20),  # more than the vocabulary has: all eight
        ],
    )
    def test_matches_choice_and_its_final_state(self, vocabulary, count):
        for seed in SEEDS:
            mine, theirs = twins(seed)
            assert vocabulary.sample(count, mine) == reference_sample(vocabulary, count, theirs)
            assert mine.random() == theirs.random(), seed

    def test_the_collision_round_runs(self):
        """Near the vocabulary's size the first round repeats an index for
        most seeds, so the cases above do cover numpy's later rounds."""
        cdf = SMALL.probabilities.cumsum()
        cdf /= cdf[-1]
        repeats = sum(
            len(set(cdf.searchsorted(np.random.default_rng(seed).random(7), side="right"))) < 7
            for seed in SEEDS
        )
        assert repeats > len(SEEDS) // 2

    def test_negative_count_rejected(self):
        with pytest.raises(DatasetError):
            DEFAULT.sample(-1, np.random.default_rng(0))


class TestVocabularySampleOne:
    @pytest.mark.parametrize("vocabulary", [DEFAULT, SMALL])
    def test_matches_choice_and_its_final_state(self, vocabulary):
        for seed in SEEDS:
            mine, theirs = twins(seed)
            assert vocabulary.sample_one(mine) == reference_sample_one(vocabulary, theirs)
            assert mine.random() == theirs.random(), seed


def test_mixed_draws_stay_in_step():
    """sample and sample_one interleaved on one generator, as a build does."""
    for seed in SEEDS:
        mine, theirs = twins(seed)
        for step in range(12):
            vocabulary = SMALL if step % 3 == 0 else DEFAULT
            count = (step * 5) % 9
            assert vocabulary.sample(count, mine) == reference_sample(vocabulary, count, theirs)
            assert vocabulary.sample_one(mine) == reference_sample_one(vocabulary, theirs)
        assert mine.random() == theirs.random(), seed


class TestHotspotHop:
    @staticmethod
    def walk(centers, popularity, seed: int, start: int = 0, hops: int = 30) -> None:
        """*hops* hops from hotspot *start*, memoised versus reference."""
        mine, theirs = twins(seed)
        hop_cdfs: dict = {}
        here = there = start
        for _ in range(hops):
            here = _next_hotspot(here, hop_cdfs, centers, popularity, mine)
            there = reference_hop(there, centers, popularity, theirs)
            assert here == there, seed
        assert mine.random() == theirs.random(), seed

    def test_city_hops_match_choice(self):
        layout = np.random.default_rng(99)
        centers = layout.uniform(0.0, 4.0, size=(20, 2))
        popularity = np.arange(1, 21, dtype=np.float64) ** -0.8
        layout.shuffle(popularity)
        popularity /= popularity.sum()
        for seed in SEEDS:
            self.walk(centers, popularity, seed)

    def test_underflow_fallback_matches_choice(self):
        """A hotspot ~2 000 km from the rest: every ``exp`` out of it
        underflows to 0 (1 000 km would not: exp(-667) is still a double),
        so its hop falls back to a uniform ``rng.integers`` — which may
        land on the near pair, whose hops keep their CDF."""
        centers = np.asarray([[0.0, 0.0], [0.5, 0.0], [2000.0, 0.0]])
        popularity = np.asarray([0.5, 0.3, 0.2])
        assert _hop_cdf(2, centers, popularity) is None
        assert _hop_cdf(0, centers, popularity) is not None
        for seed in SEEDS:
            self.walk(centers, popularity, seed, start=2)

    def test_all_far_hotspots_hop_uniformly_like_choice(self):
        """Four hotspots ~2 000 km apart: every hop is the fallback."""
        centers = np.asarray([[0.0, 0.0], [2000.0, 0.0], [0.0, 2000.0], [2000.0, 2000.0]])
        popularity = np.full(4, 0.25)
        assert all(_hop_cdf(i, centers, popularity) is None for i in range(4))
        for seed in SEEDS:
            self.walk(centers, popularity, seed)
