"""Tests for the synthetic photo-stream generator (repro.datasets.photos)."""

import pytest

from repro.datasets.photos import DAY_SECONDS, PhotoStreamConfig, generate_photo_stream
from repro.exceptions import DatasetError


@pytest.fixture(scope="module")
def stream():
    config = PhotoStreamConfig(num_users=40, num_hotspots=20, seed=3)
    return generate_photo_stream(config), config


class TestStream:
    def test_photo_counts_respect_config(self, stream):
        (photos, _hotspots, _vocab), config = stream
        lo, hi = config.photos_per_user
        assert len(photos) >= config.num_users * lo
        assert len(photos) <= config.num_users * hi

    def test_sorted_by_user_then_time(self, stream):
        (photos, _h, _v), _config = stream
        keys = [(p.user_id, p.timestamp) for p in photos]
        assert keys == sorted(keys)

    def test_photos_carry_tags(self, stream):
        (photos, _h, _v), _config = stream
        assert all(len(p.tags) >= 1 for p in photos)

    def test_photos_cluster_near_hotspots(self, stream):
        (photos, hotspots, _v), config = stream
        import math

        close = 0
        for photo in photos[:500]:
            nearest = min(math.hypot(photo.x - h.x, photo.y - h.y) for h in hotspots)
            if nearest <= 5 * config.hotspot_sigma_km:
                close += 1
        assert close >= 450  # nearly all photos hug a hotspot

    def test_session_breaks_exist(self, stream):
        (photos, _h, _v), _config = stream
        gaps = [
            b.timestamp - a.timestamp
            for a, b in zip(photos, photos[1:])
            if a.user_id == b.user_id
        ]
        assert any(gap >= DAY_SECONDS for gap in gaps)
        assert any(gap < DAY_SECONDS for gap in gaps)

    def test_deterministic_given_seed(self):
        config = PhotoStreamConfig(num_users=10, num_hotspots=8, seed=9)
        a, _, _ = generate_photo_stream(config)
        b, _, _ = generate_photo_stream(config)
        assert [(p.user_id, p.timestamp, p.x) for p in a] == [
            (p.user_id, p.timestamp, p.x) for p in b
        ]

    def test_invalid_config_rejected(self):
        """Every bad knob fails as DatasetError before the first draw."""
        for knobs in (
            {"num_users": 0},
            {"num_hotspots": 1},
            {"photos_per_user": (5, 2)},
            {"photos_per_user": (-1, 2)},
            {"topic_tags_per_hotspot": (0, 0)},
            {"tags_per_photo": (3, 1)},
            {"extent_km": (4.0, -1.0)},
            {"hotspot_sigma_km": -1.0},
            {"noise_tag_probability": -0.1},
            {"session_break_probability": 2.0},
            {"session_break_probability": float("nan")},
        ):
            config = PhotoStreamConfig(**{"num_users": 2, "num_hotspots": 4, **knobs})
            with pytest.raises(DatasetError):
                generate_photo_stream(config)
