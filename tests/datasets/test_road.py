"""Tests for the synthetic road-network generator (repro.datasets.road)."""

import math

import pytest

from repro.datasets.road import RoadConfig, build_road_graph
from repro.exceptions import DatasetError
from repro.graph.validation import is_strongly_connected


@pytest.fixture(scope="module")
def road():
    return build_road_graph(RoadConfig(num_nodes=300, seed=5))


class TestRoadGraph:
    def test_node_count_close_to_requested(self, road):
        assert abs(road.num_nodes - 300) <= 60

    def test_strongly_connected(self, road):
        assert is_strongly_connected(road)

    def test_planar_degree_regime(self, road):
        """Road networks have small out-degree (the paper's d)."""
        max_degree = max(road.out_degree(u) for u in range(road.num_nodes))
        assert max_degree <= 8

    def test_budgets_match_geometry(self, road):
        for edge in list(road.iter_edges())[:100]:
            ax, ay = road.coordinates(edge.u)
            bx, by = road.coordinates(edge.v)
            assert edge.budget == pytest.approx(math.hypot(ax - bx, ay - by), rel=1e-6)

    def test_objectives_uniform_01(self, road):
        """The paper: 'randomly generate the objective score in (0,1)'."""
        objectives = [e.objective for e in road.iter_edges()]
        assert all(0 < o < 1 for o in objectives)
        mean = sum(objectives) / len(objectives)
        assert 0.3 < mean < 0.7

    def test_every_node_tagged(self, road):
        assert all(road.node_keywords(u) for u in range(road.num_nodes))

    def test_deterministic_given_seed(self):
        a = build_road_graph(RoadConfig(num_nodes=150, seed=2))
        b = build_road_graph(RoadConfig(num_nodes=150, seed=2))
        assert a.num_nodes == b.num_nodes
        assert a.num_edges == b.num_edges

    def test_different_seeds_differ(self):
        a = build_road_graph(RoadConfig(num_nodes=150, seed=2))
        b = build_road_graph(RoadConfig(num_nodes=150, seed=3))
        assert [e.objective for e in a.iter_edges()] != [
            e.objective for e in b.iter_edges()
        ]

    def test_invalid_config_rejected(self):
        """Every bad knob fails as DatasetError before the first draw."""
        for knobs in (
            {"num_nodes": 3},
            {"tags_per_node": (3, 1)},
            {"tags_per_node": (-1, 2)},
            {"block_km": -0.25},
            {"jitter": -0.1},
            {"diagonal_probability": 1.5},
        ):
            with pytest.raises(DatasetError):
                build_road_graph(RoadConfig(**{"num_nodes": 16, **knobs}))

    def test_scales(self):
        small = build_road_graph(RoadConfig(num_nodes=100, seed=1))
        large = build_road_graph(RoadConfig(num_nodes=900, seed=1))
        assert large.num_nodes > 5 * small.num_nodes
