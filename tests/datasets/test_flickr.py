"""Tests for the Flickr-like graph pipeline (repro.datasets.flickr)."""

import math

import pytest

from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig
from repro.exceptions import DatasetError
from repro.graph.validation import is_strongly_connected


class TestPipeline:
    def test_dataset_statistics_populated(self, small_flickr):
        assert small_flickr.num_photos > 0
        assert small_flickr.num_locations == small_flickr.graph.num_nodes
        assert small_flickr.total_trips > 0
        assert small_flickr.num_tags > 0
        assert "flickr-like" in small_flickr.summary()

    def test_graph_is_strongly_connected(self, small_flickr):
        """The builder restricts to the largest SCC by default."""
        assert is_strongly_connected(small_flickr.graph)

    def test_every_node_has_coordinates(self, small_flickr):
        graph = small_flickr.graph
        assert graph.has_coordinates
        for u in range(graph.num_nodes):
            x, y = graph.coordinates(u)
            assert math.isfinite(x) and math.isfinite(y)

    def test_budgets_are_euclidean_distances(self, small_flickr):
        graph = small_flickr.graph
        for edge in list(graph.iter_edges())[:200]:
            ax, ay = graph.coordinates(edge.u)
            bx, by = graph.coordinates(edge.v)
            distance = max(math.hypot(ax - bx, ay - by), 1e-3)
            assert edge.budget == pytest.approx(distance)

    def test_objectives_are_log_inverse_popularity(self, small_flickr):
        """o = log(1/Pr) > 0, larger for rarer edges."""
        graph = small_flickr.graph
        objectives = [e.objective for e in graph.iter_edges()]
        assert all(o > 0 for o in objectives)
        # Popularity sums to <= 1 over edges, so log(1/Pr) >= log(num_edges)
        # for the *average* edge; just check the spread is non-trivial.
        assert max(objectives) > min(objectives)

    def test_popularity_probabilities_consistent(self, small_flickr):
        """Sum of edge probabilities Pr = Num/TotalTrips is at most 1."""
        total_probability = sum(math.exp(-e.objective) for e in small_flickr.graph.iter_edges())
        assert total_probability <= 1.0 + 1e-6

    def test_deterministic_given_seed(self):
        config = FlickrConfig(
            photo_stream=PhotoStreamConfig(num_users=60, num_hotspots=25, seed=11)
        )
        a = build_flickr_graph(config)
        b = build_flickr_graph(config)
        assert a.graph.num_nodes == b.graph.num_nodes
        assert a.graph.num_edges == b.graph.num_edges

    def test_too_sparse_configuration_raises(self):
        config = FlickrConfig(
            photo_stream=PhotoStreamConfig(num_users=1, num_hotspots=2, photos_per_user=(1, 2)),
            min_photos_per_location=50,
        )
        with pytest.raises(DatasetError):
            build_flickr_graph(config)
