"""Road-network graphs (paper Section 4.1, datasets 2-5).

The paper extracts New York road-network subgraphs of 5k/10k/15k/20k
nodes (DIMACS challenge data), attaches random Flickr tags to nodes, uses
travel distance as the budget and a uniform(0,1) random objective per
edge.  Offline, we synthesise road networks with the same structural
regime: a perturbed grid (planar, degree <= ~4-6) with optional diagonal
shortcuts, which matches urban road graphs' degree distribution and
diameter scaling; everything else follows the paper exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.checks import check_nonnegative, check_probability, check_range
from repro.datasets.tags import TagVocabulary
from repro.exceptions import DatasetError
from repro.graph.builder import GraphBuilder
from repro.graph.digraph import SpatialKeywordGraph

__all__ = ["RoadConfig", "build_road_graph"]


@dataclass
class RoadConfig:
    """Configuration of the synthetic road-network generator."""

    num_nodes: int = 5000
    #: Average spacing between adjacent intersections (km).
    block_km: float = 0.25
    #: Relative jitter of node coordinates (fraction of block size).
    jitter: float = 0.3
    #: Probability of adding a diagonal shortcut at a grid cell.
    diagonal_probability: float = 0.08
    #: Tags drawn per node (uniform in the inclusive range).
    tags_per_node: tuple[int, int] = (1, 3)
    seed: int = 0
    vocabulary: TagVocabulary | None = field(default=None, repr=False)


def build_road_graph(config: RoadConfig | None = None) -> SpatialKeywordGraph:
    """Build a strongly connected road network per *config*.

    The grid skeleton (bidirectional edges) guarantees strong
    connectivity by construction; budgets are Euclidean distances over
    the jittered coordinates and objectives are uniform(0,1) as in the
    paper's synthetic datasets.
    """
    config = config if config is not None else RoadConfig()
    if config.num_nodes < 4:
        raise DatasetError(f"need at least 4 nodes, got {config.num_nodes}")
    check_nonnegative("block_km", config.block_km)
    check_nonnegative("jitter", config.jitter)
    check_probability("diagonal_probability", config.diagonal_probability)
    check_range("tags_per_node", config.tags_per_node, 0)
    rng = np.random.default_rng(config.seed)
    vocabulary = (
        config.vocabulary
        if config.vocabulary is not None
        else TagVocabulary(seed=config.seed)
    )

    cols = int(math.ceil(math.sqrt(config.num_nodes)))
    rows = int(math.ceil(config.num_nodes / cols))
    # The last row may be partial; node (r, c) exists iff its id < n.
    n = config.num_nodes

    def node_id(r: int, c: int) -> int | None:
        if 0 <= r < rows and 0 <= c < cols:
            nid = r * cols + c
            return nid if nid < n else None
        return None

    xs = np.empty(n)
    ys = np.empty(n)
    builder = GraphBuilder()
    lo, hi = config.tags_per_node
    for nid in range(n):
        r, c = divmod(nid, cols)
        x = (c + rng.uniform(-config.jitter, config.jitter)) * config.block_km
        y = (r + rng.uniform(-config.jitter, config.jitter)) * config.block_km
        xs[nid], ys[nid] = x, y
        count = int(rng.integers(lo, hi + 1))
        builder.add_node(keywords=vocabulary.sample(count, rng), name=f"n{nid}", x=x, y=y)

    def add_road(u: int, v: int) -> None:
        distance = math.hypot(xs[u] - xs[v], ys[u] - ys[v])
        budget = max(distance, 1e-4)
        # Directions get independent objectives, as in the paper's
        # per-edge uniform(0,1) assignment on a directed graph.
        builder.add_edge(u, v, objective=float(rng.uniform(0.01, 1.0)), budget=budget)
        builder.add_edge(v, u, objective=float(rng.uniform(0.01, 1.0)), budget=budget)

    for r in range(rows):
        for c in range(cols):
            u = node_id(r, c)
            if u is None:
                continue
            right = node_id(r, c + 1)
            down = node_id(r + 1, c)
            if right is not None:
                add_road(u, right)
            if down is not None:
                add_road(u, down)
            if (
                config.diagonal_probability > 0
                and rng.random() < config.diagonal_probability
            ):
                diag = node_id(r + 1, c + 1)
                if diag is not None:
                    add_road(u, diag)

    return builder.build()
