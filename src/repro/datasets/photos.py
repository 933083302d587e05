"""Synthetic geo-tagged photo streams.

The paper's raw input is 1.5M Flickr photos: ``(user, time, lat, lon,
tags)``.  We reproduce the *generative shape* of such data — that is what
the downstream pipeline (clustering, trip extraction, popularity) actually
depends on:

* photos concentrate around a few hundred attraction *hotspots*;
* each hotspot has a topical tag distribution (drawn from a Zipf
  vocabulary) plus idiosyncratic noise tags used by single users;
* each user's photos form temporal sessions: consecutive photos within a
  session are minutes-to-hours apart (producing trips), sessions are
  separated by more than the 1-day trip cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets.checks import check_nonnegative, check_probability, check_range
from repro.datasets.tags import TagVocabulary
from repro.exceptions import DatasetError

__all__ = ["Photo", "Hotspot", "PhotoStreamConfig", "generate_photo_stream"]

#: Seconds in one day — the paper's trip cutoff between consecutive photos.
DAY_SECONDS = 86_400.0


@dataclass(frozen=True)
class Photo:
    """One geo-tagged photo."""

    user_id: int
    timestamp: float
    x: float
    y: float
    tags: frozenset[str]


@dataclass(frozen=True)
class Hotspot:
    """An attraction around which photos cluster."""

    x: float
    y: float
    popularity: float
    topic_tags: tuple[str, ...]


@dataclass
class PhotoStreamConfig:
    """Knobs of the photo-stream generator (defaults give a small city)."""

    num_users: int = 500
    num_hotspots: int = 160
    photos_per_user: tuple[int, int] = (15, 70)
    #: City extent in kilometres; budgets are Euclidean km as in the paper.
    #: The default city is spatially *compressed* relative to NYC so that
    #: ~400-600 locations reach the paper's keyword density (5,199 NYC
    #: locations); this keeps the paper's Delta = 3..15 km sweep in the
    #: same feasibility regime.
    extent_km: tuple[float, float] = (4.0, 4.0)
    #: Photo scatter around a hotspot centre (km).
    hotspot_sigma_km: float = 0.08
    topic_tags_per_hotspot: tuple[int, int] = (4, 12)
    tags_per_photo: tuple[int, int] = (1, 4)
    #: Probability a photo adds one noise tag (later removed by cleaning).
    noise_tag_probability: float = 0.08
    #: Probability that consecutive photos of a user start a new session
    #: (gap > 1 day, breaking the trip chain).
    session_break_probability: float = 0.15
    #: Zipf exponent for hotspot popularity (visit skew).
    popularity_exponent: float = 0.8
    seed: int = 0
    vocabulary: TagVocabulary | None = field(default=None, repr=False)


def generate_photo_stream(
    config: PhotoStreamConfig,
) -> tuple[list[Photo], list[Hotspot], TagVocabulary]:
    """Generate photos, the hotspots behind them, and the tag vocabulary."""
    _validate(config)
    rng = np.random.default_rng(config.seed)
    vocabulary = (
        config.vocabulary
        if config.vocabulary is not None
        else TagVocabulary(seed=config.seed)
    )

    hotspots = _make_hotspots(config, rng, vocabulary)
    popularity = np.asarray([h.popularity for h in hotspots])
    popularity = popularity / popularity.sum()
    centers = np.asarray([[h.x, h.y] for h in hotspots])

    hop_cdfs: dict[int, np.ndarray | None] = {}
    photos: list[Photo] = []
    lo, hi = config.photos_per_user
    for user in range(config.num_users):
        count = int(rng.integers(lo, hi + 1))
        timestamp = float(rng.uniform(0, 30 * DAY_SECONDS))
        # Users hop between hotspots with popularity-weighted preference,
        # biased towards nearby ones (distance decay), like real tourists.
        current = int(rng.choice(len(hotspots), p=popularity))
        for _ in range(count):
            hotspot = hotspots[current]
            x = float(hotspot.x + rng.normal(0, config.hotspot_sigma_km))
            y = float(hotspot.y + rng.normal(0, config.hotspot_sigma_km))
            photos.append(
                Photo(
                    user_id=user,
                    timestamp=timestamp,
                    x=x,
                    y=y,
                    tags=_photo_tags(hotspot, config, rng, vocabulary, user),
                )
            )
            if rng.random() < config.session_break_probability:
                timestamp += float(rng.uniform(1.5, 5.0)) * DAY_SECONDS
            else:
                timestamp += float(rng.uniform(600.0, 0.4 * DAY_SECONDS))
            current = _next_hotspot(current, hop_cdfs, centers, popularity, rng)
    photos.sort(key=lambda p: (p.user_id, p.timestamp))
    return photos, hotspots, vocabulary


def _validate(config: PhotoStreamConfig) -> None:
    if config.num_users < 1 or config.num_hotspots < 2:
        raise DatasetError("need at least one user and two hotspots")
    check_range("photos_per_user", config.photos_per_user, 0)
    # A photo takes at least one of its hotspot's topic tags.
    check_range("topic_tags_per_hotspot", config.topic_tags_per_hotspot, 1)
    check_range("tags_per_photo", config.tags_per_photo, 0)
    for extent in config.extent_km:
        check_nonnegative("extent_km", extent)
    check_nonnegative("hotspot_sigma_km", config.hotspot_sigma_km)
    check_probability("noise_tag_probability", config.noise_tag_probability)
    check_probability("session_break_probability", config.session_break_probability)


def _make_hotspots(
    config: PhotoStreamConfig, rng: np.random.Generator, vocabulary: TagVocabulary
) -> list[Hotspot]:
    width, height = config.extent_km
    ranks = np.arange(1, config.num_hotspots + 1, dtype=np.float64)
    popularity = ranks**-config.popularity_exponent
    rng.shuffle(popularity)
    lo, hi = config.topic_tags_per_hotspot
    hotspots = []
    for i in range(config.num_hotspots):
        topic_size = int(rng.integers(lo, hi + 1))
        hotspots.append(
            Hotspot(
                x=float(rng.uniform(0, width)),
                y=float(rng.uniform(0, height)),
                popularity=float(popularity[i]),
                topic_tags=tuple(vocabulary.sample(topic_size, rng)),
            )
        )
    return hotspots


def _photo_tags(
    hotspot: Hotspot,
    config: PhotoStreamConfig,
    rng: np.random.Generator,
    vocabulary: TagVocabulary,
    user: int,
) -> frozenset[str]:
    lo, hi = config.tags_per_photo
    count = int(rng.integers(lo, hi + 1))
    count = min(count, len(hotspot.topic_tags))
    chosen = set(
        hotspot.topic_tags[int(i)]
        for i in rng.choice(len(hotspot.topic_tags), size=max(count, 1), replace=False)
    )
    if rng.random() < config.noise_tag_probability:
        # A private tag effectively unique to this user; the cleaning step
        # (single-contributor removal) should strip it from locations.
        chosen.add(f"noise-u{user}-{vocabulary.sample_one(rng)}")
    return frozenset(chosen)


def _next_hotspot(
    current: int,
    hop_cdfs: dict[int, np.ndarray | None],
    centers: np.ndarray,
    popularity: np.ndarray,
    rng: np.random.Generator,
) -> int:
    """Draw the hotspot a user visits after *current*.

    The hop distribution of a hotspot never changes, so its CDF is built
    once, into *hop_cdfs*, the first time a user stands on it.  A draw is
    what ``rng.choice(len(centers), p=p)`` does after validating ``p``:
    one double, located in the normalised cumulative sum.
    """
    if current not in hop_cdfs:
        hop_cdfs[current] = _hop_cdf(current, centers, popularity)
    cdf = hop_cdfs[current]
    if cdf is None:
        return int(rng.integers(len(centers)))
    return int(cdf.searchsorted(rng.random(), side="right"))


def _hop_cdf(current: int, centers: np.ndarray, popularity: np.ndarray) -> np.ndarray | None:
    """CDF of the hop out of *current*, or ``None`` when every weight
    underflows (the hop is then uniform)."""
    deltas = centers - centers[current]
    distance = np.sqrt((deltas**2).sum(axis=1))
    # Distance decay: hotspots ~2km away are an order of magnitude more
    # likely than ~20km away; popularity multiplies in.
    weights = popularity * np.exp(-distance / 1.5)
    weights[current] = 0.0
    total = weights.sum()
    if total <= 0:
        return None
    cdf = (weights / total).cumsum()
    cdf /= cdf[-1]
    return cdf
