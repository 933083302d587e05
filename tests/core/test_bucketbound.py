"""Tests for Algorithm 2 (repro.core.bucketbound)."""

import math

import pytest

from repro.core.bucketbound import BucketQueue, bucket_bound
from repro.core.label import Label
from repro.core.query import KORQuery


def run(engine, source, target, keywords, delta, **params):
    return bucket_bound(
        engine.graph,
        engine.tables,
        engine.index,
        KORQuery(source, target, keywords, delta),
        **params,
    )


class TestBucketQueue:
    def test_bucket_index_geometric(self):
        queue = BucketQueue(base=10.0, beta=2.0)
        assert queue.bucket_index(10.0) == 0
        assert queue.bucket_index(19.9) == 0
        assert queue.bucket_index(20.0) == 1
        assert queue.bucket_index(40.0) == 2

    def test_low_below_base_lands_in_bucket_zero(self):
        queue = BucketQueue(base=10.0, beta=2.0)
        assert queue.bucket_index(3.0) == 0

    def test_pop_draws_from_lowest_bucket(self):
        queue = BucketQueue(base=1.0, beta=2.0)
        far = Label(0, 0, 0.0, 9.0, 0.0)
        near = Label(1, 0, 0.0, 1.0, 0.0)
        queue.push(far, 9.0)
        queue.push(near, 1.0)
        bucket, label = queue.pop()
        assert label is near
        assert bucket == 0

    def test_pop_skips_dead_labels(self):
        queue = BucketQueue(base=1.0, beta=2.0)
        dead = Label(0, 0, 0.0, 1.0, 0.0)
        dead.alive = False
        live = Label(1, 0, 0.0, 1.2, 0.0)
        queue.push(dead, 1.0)
        queue.push(live, 1.2)
        _bucket, label = queue.pop()
        assert label is live

    def test_pop_empty_returns_none(self):
        assert BucketQueue(base=1.0, beta=2.0).pop() is None

    def test_peek_bucket(self):
        queue = BucketQueue(base=1.0, beta=2.0)
        assert queue.peek_bucket() is None
        queue.push(Label(0, 0, 0.0, 4.0, 0.0), 4.0)
        assert queue.peek_bucket() == 2

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            BucketQueue(base=1.0, beta=1.0)
        with pytest.raises(ValueError):
            BucketQueue(base=0.0, beta=2.0)
        with pytest.raises(ValueError):
            BucketQueue(base=math.inf, beta=2.0)


class TestResults:
    def test_matches_feasibility_of_osscaling(self, fig1_engine):
        for keywords, delta in ((("t1", "t2"), 10.0), (("t5",), 6.0), (("t1", "t2", "t3"), 8.0)):
            bb = run(fig1_engine, 0, 7, keywords, delta)
            oss = fig1_engine.query(0, 7, keywords, delta, algorithm="osscaling")
            assert bb.feasible == oss.feasible

    @pytest.mark.parametrize("beta", [1.2, 1.5, 2.0])
    def test_theorem3_bound(self, fig1_engine, beta):
        epsilon = 0.5
        exact = fig1_engine.query(0, 7, ("t1", "t2", "t3"), 8.0, algorithm="exact")
        result = run(fig1_engine, 0, 7, ("t1", "t2", "t3"), 8.0, epsilon=epsilon, beta=beta)
        assert result.feasible
        assert (
            result.route.objective_score
            <= exact.route.objective_score * beta / (1 - epsilon) + 1e-9
        )

    def test_no_feasible_route_detected(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("t5",), 6.0)
        assert not result.feasible
        assert result.failure_reason == "no feasible route exists"

    def test_source_covers_everything(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("t3",), 8.0)
        assert result.feasible
        # tau_{0,7} is the global objective optimum, so it is THE answer.
        assert result.route.nodes == (0, 3, 4, 7)

    def test_stats_report_buckets(self, fig1_engine):
        result = run(fig1_engine, 0, 7, ("t1", "t2"), 10.0)
        assert result.stats.buckets_opened >= 1


class TestAgainstOSScaling:
    """BucketBound's answer is within beta of OSScaling's (Lemma 5)."""

    @pytest.mark.parametrize("seed", range(4))
    def test_ratio_below_beta_on_flickr(self, small_flickr_engine, seed):
        import numpy as np

        rng = np.random.default_rng(seed)
        graph = small_flickr_engine.graph
        n = graph.num_nodes
        words = [w for w in graph.keyword_table.words][:50]
        keywords = tuple(rng.choice(words, size=2, replace=False))
        source, target = int(rng.integers(n)), int(rng.integers(n))
        delta = 6.0
        beta = 1.2
        oss = small_flickr_engine.query(source, target, keywords, delta, algorithm="osscaling")
        bb = small_flickr_engine.query(
            source, target, keywords, delta, algorithm="bucketbound", beta=beta
        )
        assert bb.feasible == oss.feasible
        if oss.feasible:
            # Lemma 5: same bucket => ratio below beta (up to float slack).
            assert bb.route.objective_score <= oss.route.objective_score * beta + 1e-6
