"""The Flickr-like evaluation graph (paper Section 4.1, first dataset).

Pipeline, exactly as the paper describes it:

1. collect geo-tagged photos (synthesised by :mod:`repro.datasets.photos`,
   which reproduces the generative shape of the paper's Flickr crawl);
2. cluster photos into locations, aggregating tags and dropping tags
   contributed by a single user;
3. sort each user's photos by time; two consecutive photos at different
   locations less than one day apart are a *trip*, which adds (weight to)
   the directed edge between the locations;
4. edge popularity ``Pr_{i,j} = Num(v_i, v_j) / TotalTrips``; since the
   route popularity ``PS(R) = prod Pr`` must be *maximised*, the per-edge
   objective is ``o = log(1 / Pr)`` so minimising ``OS`` maximises ``PS``;
5. edge budget = Euclidean distance between the locations (km).

The builder finally restricts to the largest strongly connected component
so random benchmark queries are seldom trivially infeasible.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field

from repro.datasets.clustering import Location, cluster_photos
from repro.datasets.photos import DAY_SECONDS, PhotoStreamConfig, generate_photo_stream
from repro.exceptions import DatasetError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import SpatialKeywordGraph
from repro.graph.validation import largest_scc

__all__ = ["FlickrConfig", "FlickrDataset", "build_flickr_graph"]


@dataclass
class FlickrConfig:
    """Configuration of the Flickr-like graph builder.

    The defaults produce roughly 600-900 locations — a scaled-down New
    York (the paper has 5,199); pass a larger ``photo_stream`` for
    paper-scale runs.
    """

    photo_stream: PhotoStreamConfig = field(default_factory=PhotoStreamConfig)
    cluster_cell_km: float = 0.15
    min_photos_per_location: int = 2
    min_tag_users: int = 2
    trip_cutoff_seconds: float = DAY_SECONDS
    restrict_to_largest_scc: bool = True


@dataclass
class FlickrDataset:
    """The built graph plus provenance statistics."""

    graph: SpatialKeywordGraph
    num_photos: int
    num_users: int
    num_locations: int
    num_tags: int
    total_trips: int

    def summary(self) -> str:
        """One-line description mirroring the paper's dataset table."""
        return (
            f"flickr-like: {self.num_photos} photos, {self.num_users} users -> "
            f"{self.num_locations} locations, {self.num_tags} tags, "
            f"{self.graph.num_edges} edges from {self.total_trips} trips"
        )


def build_flickr_graph(config: FlickrConfig | None = None) -> FlickrDataset:
    """Run the full photos -> locations -> trips -> graph pipeline."""
    config = config if config is not None else FlickrConfig()
    photos, _hotspots, _vocabulary = generate_photo_stream(config.photo_stream)

    locations, photo_to_location = cluster_photos(
        photos,
        cell_km=config.cluster_cell_km,
        min_photos=config.min_photos_per_location,
        min_tag_users=config.min_tag_users,
    )
    if len(locations) < 2:
        raise DatasetError(
            "clustering produced fewer than two locations; "
            "decrease cluster_cell_km or generate more photos"
        )

    trip_counts = _extract_trips(photos, photo_to_location, config.trip_cutoff_seconds)
    total_trips = sum(trip_counts.values())
    if total_trips == 0:
        raise DatasetError("no trips extracted; increase photos per user or the session length")

    graph = _build_graph(locations, trip_counts, total_trips)
    if config.restrict_to_largest_scc:
        graph, _mapping = largest_scc(graph)

    tags = set()
    for node in range(graph.num_nodes):
        tags |= graph.node_keywords(node)
    return FlickrDataset(
        graph=graph,
        num_photos=len(photos),
        num_users=config.photo_stream.num_users,
        num_locations=graph.num_nodes,
        num_tags=len(tags),
        total_trips=total_trips,
    )


def _extract_trips(
    photos: list,
    photo_to_location: dict[int, int],
    cutoff_seconds: float,
) -> dict[tuple[int, int], int]:
    """Count trips between consecutive photo locations per user.

    ``photos`` is sorted by (user, time) — the generator guarantees it.
    """
    counts: dict[tuple[int, int], int] = defaultdict(int)
    for idx in range(1, len(photos)):
        prev, curr = photos[idx - 1], photos[idx]
        if prev.user_id != curr.user_id:
            continue
        if curr.timestamp - prev.timestamp >= cutoff_seconds:
            continue
        loc_a = photo_to_location.get(idx - 1)
        loc_b = photo_to_location.get(idx)
        if loc_a is None or loc_b is None or loc_a == loc_b:
            continue
        counts[(loc_a, loc_b)] += 1
    return counts


def _build_graph(
    locations: list[Location],
    trip_counts: dict[tuple[int, int], int],
    total_trips: int,
) -> SpatialKeywordGraph:
    builder = GraphBuilder()
    for i, location in enumerate(locations):
        builder.add_node(
            keywords=sorted(location.tags),
            name=f"loc{i}",
            x=location.x,
            y=location.y,
        )
    for (u, v), count in sorted(trip_counts.items()):
        probability = count / total_trips
        objective = math.log(1.0 / probability)
        a, b = locations[u], locations[v]
        distance = math.hypot(a.x - b.x, a.y - b.y)
        # Same-cell pairs were dropped as trips, but centroids can still be
        # arbitrarily close; clamp to keep edge budgets strictly positive.
        budget = max(distance, 1e-3)
        builder.add_edge(u, v, objective=max(objective, 1e-9), budget=budget)
    return builder.build()
