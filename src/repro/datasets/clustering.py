"""Grid clustering of photos into locations (paper Section 4.1).

Following the paper (which follows Kurashima et al. [15]), photos are
grouped into locations by spatial clustering; each location aggregates
the tags of its photos *after removing noisy tags* — tags contributed by
only one user.  We use square grid cells, which is deterministic, fast
and faithful to the "cluster then aggregate" recipe.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

from repro.datasets.photos import Photo
from repro.exceptions import DatasetError

__all__ = ["Location", "cluster_photos"]


@dataclass(frozen=True)
class Location:
    """One clustered location: centroid, cleaned tags, supporting photos."""

    x: float
    y: float
    tags: frozenset[str]
    photo_count: int
    cell: tuple[int, int]


def cluster_photos(
    photos: list[Photo],
    cell_km: float = 0.5,
    min_photos: int = 2,
    min_tag_users: int = 2,
) -> tuple[list[Location], dict[int, int]]:
    """Cluster *photos* on a ``cell_km`` grid.

    Returns the locations plus a map ``photo index -> location index``
    (photos in dropped cells are absent).  A tag survives aggregation only
    when at least *min_tag_users* distinct users contributed it — the
    paper's noisy-tag removal.
    """
    if cell_km <= 0:
        raise DatasetError(f"cell_km must be > 0, got {cell_km}")
    if min_photos < 1:
        raise DatasetError(f"min_photos must be >= 1, got {min_photos}")

    cells: dict[tuple[int, int], list[int]] = defaultdict(list)
    for idx, photo in enumerate(photos):
        cell = (int(photo.x // cell_km), int(photo.y // cell_km))
        cells[cell].append(idx)

    locations: list[Location] = []
    photo_to_location: dict[int, int] = {}
    for cell in sorted(cells):
        members = cells[cell]
        if len(members) < min_photos:
            continue
        tag_users: dict[str, set[int]] = defaultdict(set)
        sum_x = sum_y = 0.0
        for idx in members:
            photo = photos[idx]
            sum_x += photo.x
            sum_y += photo.y
            for tag in photo.tags:
                tag_users[tag].add(photo.user_id)
        tags = frozenset(tag for tag, users in tag_users.items() if len(users) >= min_tag_users)
        location_index = len(locations)
        locations.append(
            Location(
                x=sum_x / len(members),
                y=sum_y / len(members),
                tags=tags,
                photo_count=len(members),
                cell=cell,
            )
        )
        for idx in members:
            photo_to_location[idx] = location_index
    return locations, photo_to_location
