"""Cached benchmark workloads (paper Section 4.1).

A :class:`Workload` bundles a graph with its pre-processed cost tables,
inverted index and query sets.  Building one is expensive (all-pairs
shortest paths dominate), so module-level caches hand every experiment the
same instance.

Two environment variables resize the whole benchmark suite without code
changes:

* ``KOR_BENCH_QUERIES`` — queries per set (default 12; the paper uses 50);
* ``KOR_BENCH_SCALE``   — ``small`` | ``default`` | ``paper``; scales the
  synthetic datasets (``paper`` approaches the published sizes and takes
  correspondingly longer).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.core.engine import KOREngine
from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig
from repro.datasets.queries import QuerySetConfig, generate_query_set
from repro.datasets.road import RoadConfig, build_road_graph
from repro.core.query import KORQuery
from repro.graph.digraph import SpatialKeywordGraph

__all__ = [
    "Workload",
    "bench_num_queries",
    "bench_scale",
    "flickr_workload",
    "road_workload",
    "clear_caches",
    "KEYWORD_COUNTS",
    "FLICKR_DELTAS",
    "ROAD_DEFAULT_DELTA",
    "ROAD_DELTAS",
]

#: The paper's query-set battery: five sets with 2..10 keywords.
KEYWORD_COUNTS: tuple[int, ...] = (2, 4, 6, 8, 10)
#: The paper's budget sweep on the Flickr graph (km).
FLICKR_DELTAS: tuple[float, ...] = (3.0, 6.0, 9.0, 12.0, 15.0)
#: Budget sweep on the road graphs; the paper uses Delta = 30 km there.
ROAD_DELTAS: tuple[float, ...] = (10.0, 15.0, 20.0, 25.0, 30.0)
#: Delta of the road experiments that fix the budget (km).
ROAD_DEFAULT_DELTA = 20.0


def bench_num_queries() -> int:
    """Queries per set, from ``KOR_BENCH_QUERIES`` (default 12)."""
    return max(1, int(os.environ.get("KOR_BENCH_QUERIES", "12")))


def bench_scale() -> str:
    """Dataset scale, from ``KOR_BENCH_SCALE`` (default ``default``)."""
    scale = os.environ.get("KOR_BENCH_SCALE", "default")
    if scale not in ("small", "default", "paper"):
        raise ValueError(f"KOR_BENCH_SCALE must be small/default/paper, got {scale!r}")
    return scale


@dataclass
class Workload:
    """A graph plus everything the experiments need to query it."""

    name: str
    graph: SpatialKeywordGraph
    engine: KOREngine
    #: Per-keyword-count default Delta used when the sweep fixes keywords.
    default_delta: float
    _query_sets: dict[tuple[int, float, int], list[KORQuery]] = field(
        default_factory=dict, repr=False
    )

    def query_set(
        self,
        num_keywords: int,
        delta: float | None = None,
        num_queries: int | None = None,
        seed: int = 0,
    ) -> list[KORQuery]:
        """The cached query set for ``(num_keywords, delta)``.

        Follows the paper's generation recipe (random endpoints, keywords
        from the dataset vocabulary) with the feasibility screens of
        :class:`~repro.datasets.queries.QuerySetConfig`, so benchmark numbers
        measure the search, not trivially impossible draws.
        """
        delta = self.default_delta if delta is None else float(delta)
        num_queries = bench_num_queries() if num_queries is None else num_queries
        key = (num_keywords, delta, num_queries)
        cached = self._query_sets.get(key)
        if cached is None:
            config = QuerySetConfig(
                num_queries=num_queries,
                num_keywords=num_keywords,
                budget_limit=delta,
                max_sigma_fraction=0.5,
                min_document_frequency=max(2, int(0.02 * self.graph.num_nodes)),
                seed=seed + num_keywords * 1009 + int(delta * 31),
            )
            cached = generate_query_set(
                self.graph, self.engine.index, config, tables=self.engine.tables
            )
            self._query_sets[key] = cached
        return cached


_FLICKR_CACHE: dict[str, Workload] = {}
_ROAD_CACHE: dict[tuple[str, int], Workload] = {}


def flickr_workload(scale: str | None = None) -> Workload:
    """The Flickr-like workload (paper's first dataset), cached per scale."""
    scale = bench_scale() if scale is None else scale
    cached = _FLICKR_CACHE.get(scale)
    if cached is None:
        config = _flickr_config(scale)
        dataset = build_flickr_graph(config)
        engine = KOREngine(dataset.graph)
        cached = Workload(
            name=f"flickr-{scale}",
            graph=dataset.graph,
            engine=engine,
            default_delta=6.0,
        )
        _FLICKR_CACHE[scale] = cached
    return cached


def road_workload(num_nodes: int, scale: str | None = None) -> Workload:
    """A road-network workload with roughly *num_nodes* nodes, cached."""
    scale = bench_scale() if scale is None else scale
    key = (scale, num_nodes)
    cached = _ROAD_CACHE.get(key)
    if cached is None:
        graph = build_road_graph(RoadConfig(num_nodes=num_nodes, seed=num_nodes))
        engine = KOREngine(graph)
        cached = Workload(
            name=f"road-{num_nodes}",
            graph=graph,
            engine=engine,
            default_delta=ROAD_DEFAULT_DELTA,
        )
        _ROAD_CACHE[key] = cached
    return cached


def road_sizes(scale: str | None = None) -> tuple[int, ...]:
    """Node counts for the scalability sweep (paper: 5k/10k/15k/20k)."""
    scale = bench_scale() if scale is None else scale
    if scale == "small":
        return (500, 1000, 1500, 2000)
    if scale == "paper":
        return (5000, 10000, 15000, 20000)
    return (1000, 2000, 4000, 6000)


def road_default_size(scale: str | None = None) -> int:
    """The road graph used by the fixed-size road experiments (paper: 5k)."""
    scale = bench_scale() if scale is None else scale
    return {"small": 1000, "default": 2000, "paper": 5000}[scale]


def clear_caches() -> None:
    """Drop every cached workload (tests use this to bound memory)."""
    _FLICKR_CACHE.clear()
    _ROAD_CACHE.clear()


def _flickr_config(scale: str) -> FlickrConfig:
    if scale == "small":
        stream = PhotoStreamConfig(num_users=200, num_hotspots=80)
    elif scale == "paper":
        stream = PhotoStreamConfig(
            num_users=2500,
            num_hotspots=900,
            extent_km=(8.0, 8.0),
            photos_per_user=(20, 90),
        )
    else:
        stream = PhotoStreamConfig()
    return FlickrConfig(photo_stream=stream)
