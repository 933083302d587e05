"""Deadline propagation and cooperative mid-search cancellation.

Pins the :class:`~repro.core.deadline.Deadline` contract (absolute
monotonic expiry, amortised ``tick`` checkpoints, cross-process
pickling) and the engine-level guarantees the serving tiers build on:
an expired deadline refuses to start a search, every algorithm's search
loop stops within one checkpoint stride of expiry, and a deadline that
never expires is semantically invisible.
"""

from __future__ import annotations

import pickle
import time

import pytest

from repro.core.deadline import DEFAULT_TICK_STRIDE, Deadline
from repro.core.engine import ALGORITHMS, KOREngine
from repro.core.query import KORQuery
from repro.exceptions import DeadlineExceeded
from repro.graph.builder import GraphBuilder

from tests.service.test_differential import fingerprint, random_instance

pytestmark = pytest.mark.timeout(120)


def expired_deadline(stride: int = 1) -> Deadline:
    return Deadline(time.monotonic() - 1.0, tick_stride=stride)


class TestDeadlineContract:
    def test_after_requires_positive_seconds(self):
        with pytest.raises(ValueError, match="positive"):
            Deadline.after(0.0)
        with pytest.raises(ValueError, match="positive"):
            Deadline.after(-2.0)

    def test_tick_stride_must_be_at_least_one(self):
        with pytest.raises(ValueError, match="tick_stride"):
            Deadline(time.monotonic(), tick_stride=0)

    def test_remaining_expired_check(self):
        generous = Deadline.after(3600.0)
        assert not generous.expired()
        assert generous.remaining() > 3500.0
        generous.check()  # no raise

        gone = expired_deadline()
        assert gone.expired()
        assert gone.remaining() < 0.0
        with pytest.raises(DeadlineExceeded, match="deadline exceeded by"):
            gone.check()

    def test_latest_prefers_the_looser_deadline(self):
        near = Deadline(100.0)
        far = Deadline(200.0)
        assert Deadline.latest(near, far) is far
        assert Deadline.latest(far, near) is far

    def test_latest_treats_none_as_unbounded(self):
        some = Deadline.after(1.0)
        assert Deadline.latest(None, some) is None
        assert Deadline.latest(some, None) is None
        assert Deadline.latest(None, None) is None

    def test_tick_reads_the_clock_every_stride_calls(self):
        gone = expired_deadline(stride=4)
        for _ in range(3):
            gone.tick()  # amortised: no clock read yet
        with pytest.raises(DeadlineExceeded):
            gone.tick()
        # The counter reset on the stride boundary: three more free ticks.
        for _ in range(3):
            gone.tick()
        with pytest.raises(DeadlineExceeded):
            gone.tick()

    def test_pickle_round_trip_preserves_expiry_and_stride(self):
        original = Deadline.after(3600.0, tick_stride=7)
        original.tick()
        copy = pickle.loads(pickle.dumps(original))
        assert copy.__getstate__() == original.__getstate__()
        assert copy.expires_at == original.expires_at
        # The worker-side counter restarts: a full stride of free ticks.
        expired_copy = pickle.loads(pickle.dumps(expired_deadline(stride=3)))
        expired_copy.tick()
        expired_copy.tick()
        with pytest.raises(DeadlineExceeded):
            expired_copy.tick()

    def test_default_stride_is_small_enough_to_matter(self):
        assert 1 <= DEFAULT_TICK_STRIDE <= 1024


class _TripsAfterEntry(Deadline):
    """Passes the engine's entry check once, then reports expiry.

    Lets a test drive ``engine.run`` past its refuse-to-start guard and
    prove each algorithm's *search loop* carries a live checkpoint.
    """

    def __init__(self):
        super().__init__(time.monotonic() + 3600.0, tick_stride=1)
        self.checks = 0

    def check(self) -> None:
        self.checks += 1
        if self.checks > 1:
            raise DeadlineExceeded("injected expiry after the entry check")


def _search_instance():
    """A tiny graph where every algorithm must actually search."""
    builder = GraphBuilder()
    builder.add_node()  # 0: source
    builder.add_node(keywords=["pub"])
    builder.add_node(keywords=["cafe"])
    builder.add_node()  # 3: target
    for u in range(4):
        for v in range(4):
            if u != v:
                builder.add_edge(u, v, 1.0, 1.0)
    engine = KOREngine(builder.build())
    query = KORQuery(0, 3, ("pub", "cafe"), 6.0)
    return engine, query


class TestEngineCancellation:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_expired_deadline_refuses_to_start(self, algorithm):
        engine, query = _search_instance()
        with pytest.raises(DeadlineExceeded):
            engine.run(query, algorithm=algorithm, deadline=expired_deadline())

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_search_loop_checkpoint_stops_a_running_search(self, algorithm):
        """Expiry *after* the entry check still stops the search: every
        algorithm's main loop ticks the deadline."""
        engine, query = _search_instance()
        deadline = _TripsAfterEntry()
        with pytest.raises(DeadlineExceeded):
            engine.run(query, algorithm=algorithm, deadline=deadline)
        assert deadline.checks > 1  # the loop, not the entry, raised

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    @pytest.mark.parametrize("seed", (0, 3))
    def test_generous_deadline_is_semantically_invisible(self, seed, algorithm):
        engine, queries = random_instance(seed)
        for query in queries:
            plain = fingerprint(engine.run(query, algorithm=algorithm))
            bounded = fingerprint(
                engine.run(query, algorithm=algorithm, deadline=Deadline.after(3600.0))
            )
            assert bounded == plain

    def test_mid_search_expiry_returns_promptly(self):
        """A search that would run for ~seconds stops within a small
        multiple of the checkpoint interval once the deadline passes."""
        builder = GraphBuilder()
        builder.add_node(keywords=["rare"])
        for _ in range(6):
            builder.add_node()
        for u in range(7):
            for v in range(7):
                if u != v:
                    builder.add_edge(u, v, 1.0, 1.0)
        engine = KOREngine(builder.build())
        # Walk enumeration within budget 9 over out-degree 6 is far too
        # large to finish; only the deadline can stop it quickly.
        query = KORQuery(1, 2, ("rare",), 9.0)

        budget_seconds = 0.05
        begin = time.monotonic()
        with pytest.raises(DeadlineExceeded):
            engine.run(
                query,
                algorithm="exhaustive",
                deadline=Deadline.after(budget_seconds),
            )
        elapsed = time.monotonic() - begin
        # Checkpoints are a stride of queue pops (microseconds); allow
        # lavish CI slack while still proving the search did not run on.
        assert elapsed < budget_seconds + 1.0


class TestTopKCancellation:
    """The KkR searches carry the same checkpoints as the top-1 ones."""

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_expired_deadline_refuses_to_start(self, algorithm):
        engine, query = _search_instance()
        with pytest.raises(DeadlineExceeded):
            engine.top_k(
                query.source, query.target, query.keywords, query.budget_limit, 3,
                algorithm=algorithm, deadline=expired_deadline(),
            )

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_search_loop_ticks_once_per_pop(self, algorithm):
        engine, query = _search_instance()
        deadline = _TripsAfterEntry()
        with pytest.raises(DeadlineExceeded):
            engine.top_k(
                query.source, query.target, query.keywords, query.budget_limit, 3,
                algorithm=algorithm, deadline=deadline,
            )
        assert deadline.checks == 2  # the entry check, then the first pop

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_generous_deadline_is_semantically_invisible(self, algorithm):
        engine, query = _search_instance()
        args = (query.source, query.target, query.keywords, query.budget_limit, 3)
        plain = engine.top_k(*args, algorithm=algorithm)
        bounded = engine.top_k(*args, algorithm=algorithm, deadline=Deadline.after(3600.0))
        assert [route.nodes for route in bounded.routes] == [r.nodes for r in plain.routes]
        assert bounded.stats.loops == plain.stats.loops > 0
