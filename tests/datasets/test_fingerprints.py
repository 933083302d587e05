"""Golden dataset fingerprints: the generators' graphs, byte for byte.

``tests/golden/dataset_fingerprints.json`` holds one sha256 per dataset
below, over its node names, keyword ids and strings, ``float.hex``
coordinates and edges ``(u, v, objective.hex(), budget.hex())`` in
adjacency order.  Every benchmark workload, paper figure and golden file
downstream is built on these graphs, and a differential oracle that
rebuilds its reference on the same graph cannot see a changed dataset —
this file can.  A sampler rewrite must consume the same bit-generator
stream and reproduce every fingerprint.

Regenerate with ``PYTHONPATH=src python -m tests.datasets.test_fingerprints``
— only on purpose: a new fingerprint means every workload now runs on a
different graph.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig
from repro.datasets.road import RoadConfig, build_road_graph
from repro.graph.digraph import SpatialKeywordGraph

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "dataset_fingerprints.json"

#: The graphs the benchmark and the test suite build, by name.
DATASETS = {
    # benchmarks/e2e: search_cold
    "flickr": lambda: build_flickr_graph(FlickrConfig()).graph,
    # benchmarks/e2e: edge_hot, batch_waves
    "flickr-small": lambda: build_flickr_graph(
        FlickrConfig(photo_stream=PhotoStreamConfig(num_users=200, num_hotspots=80))
    ).graph,
    # benchmarks/e2e: sharded_mutating
    "road-1000": lambda: build_road_graph(RoadConfig(num_nodes=1000, seed=1000)),
    # tests/conftest.py: small_flickr (pinned against the fixture below)
    "small_flickr": lambda: build_flickr_graph(
        FlickrConfig(
            photo_stream=PhotoStreamConfig(
                num_users=120,
                num_hotspots=50,
                photos_per_user=(10, 40),
                extent_km=(3.0, 3.0),
                seed=42,
            )
        )
    ).graph,
}


def fingerprint(graph: SpatialKeywordGraph) -> dict:
    """Size and sha256 of everything a search reads off *graph*."""
    digest = hashlib.sha256()
    table = graph.keyword_table
    for u in range(graph.num_nodes):
        keywords = sorted((kid, table.word_of(kid)) for kid in graph.node_keywords(u))
        x, y = graph.coordinates(u)
        digest.update(repr((graph.name_of(u), keywords, x.hex(), y.hex())).encode())
    for edge in graph.iter_edges():
        digest.update(
            repr((edge.u, edge.v, edge.objective.hex(), edge.budget.hex())).encode()
        )
    return {"nodes": graph.num_nodes, "edges": graph.num_edges, "sha256": digest.hexdigest()}


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_the_golden_file_covers_every_dataset(golden):
    assert set(golden) == set(DATASETS)


@pytest.mark.parametrize("name", [name for name in DATASETS if name != "small_flickr"])
def test_generator_reproduces_the_golden_graph(name, golden):
    assert fingerprint(DATASETS[name]()) == golden[name]


def test_conftest_small_flickr_is_the_golden_graph(small_flickr, golden):
    assert fingerprint(small_flickr.graph) == golden["small_flickr"]


if __name__ == "__main__":
    document = {name: fingerprint(build()) for name, build in DATASETS.items()}
    GOLDEN_PATH.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
