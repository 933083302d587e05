"""Process lanes: least-loaded routing on the ProcessBackend.

A wave goes to the least-loaded lane whose breaker admits traffic, ties
to the lowest index.  The contract: the waves of one batch spread over
the lanes even when they all address one shard (a flat service), every
worker builds an engine it is asked for exactly once, and a lane whose
worker dies is rebuilt and its waves retried without a leaked depth
slot.
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.service import ProcessBackend, QueryService, ShardedQueryService
from repro.service.batch import DEFAULT_WAVE_SIZE

from tests.service.test_backends import run_waves_of_one, wave_of_one
from tests.service.test_differential import random_instance


def served_lane(backend: ProcessBackend, shard: str) -> int:
    """The one started lane whose worker has built *shard*'s engine."""
    (lane,) = [
        index
        for index, stats in backend.worker_stats().items()
        if stats["builds"].get(shard, 0) > 0
    ]
    return lane


class TestFlatPool:
    def test_one_execute_builds_on_both_lanes(self):
        """A flat service is one shard, yet one ``execute`` of three waves
        runs on both lanes: the second wave finds lane 0 busy."""
        engine, queries = random_instance(0)
        base = queries[0]
        batch = [
            KORQuery(base.source, base.target, base.keywords, base.budget_limit + step)
            for step in range(3 * DEFAULT_WAVE_SIZE)
        ]
        backend = ProcessBackend(workers=2)
        try:
            service = QueryService(engine, cache_capacity=0, backend=backend)
            report = service.execute(batch)
            assert report.ok
            assert service.snapshot().waves["formed"] == 3
            (shard,) = backend.shard_keys
            workers = backend.worker_stats()
            assert sorted(workers) == [0, 1]
            assert [workers[lane]["builds"] for lane in (0, 1)] == [{shard: 1}, {shard: 1}]
            # Each lane's first wave is a miss (its worker builds the
            # engine); the third wave lands where the shard already ran.
            pins = backend.pin_stats()
            assert (pins["misses"], pins["hits"]) == (2, 1)
        finally:
            backend.close()

    def test_sharded_service_snapshot_reports_pin_hits(self):
        """Repeat traffic lands on lanes that already ran its shards, and
        the service snapshot carries the lane counters."""
        engine, queries = random_instance(1)
        backend = ProcessBackend(workers=2)
        try:
            service = ShardedQueryService(
                engine.graph,
                num_cells=min(2, engine.graph.num_nodes),
                backend=backend,
                cache_capacity=0,  # force every round through the backend
            )
            for _ in range(3):
                report = service.execute(queries, algorithm="bucketbound")
                assert all(item.result is not None or item.error for item in report.items)
            snapshot = service.snapshot()
            assert snapshot.pinning, "snapshot should carry the lane counters"
            assert snapshot.pinning["hits"] > 0
            service.close()
        finally:
            backend.close()


class TestRouting:
    """The routing rule on lane state alone: ``_pick_lane_locked`` starts no
    worker process, so each case sets ``pending`` / ``seen`` / breaker
    fields by hand and reads which lane one wave would take."""

    @pytest.fixture
    def backend(self):
        backend = ProcessBackend(workers=3)
        yield backend
        backend.close()

    @staticmethod
    def route(backend: ProcessBackend, shard: str = "s") -> int:
        with backend._route_lock:  # noqa: SLF001
            return backend._pick_lane_locked(shard).index  # noqa: SLF001

    def test_ties_go_to_the_lowest_index(self, backend):
        assert [self.route(backend) for _ in range(3)] == [0, 0, 0]
        assert backend.pin_stats() == {"hits": 0, "misses": 3, "dead_worker_fallbacks": 0}

    @pytest.mark.parametrize(
        "pending, lane", (((2, 0, 1), 1), ((1, 1, 0), 2), ((1, 0, 0), 1), ((4, 4, 4), 0))
    )
    def test_least_loaded_lane_wins(self, backend, pending, lane):
        for slot, depth in zip(backend._lanes, pending):  # noqa: SLF001
            slot.pending = depth
        assert self.route(backend) == lane

    def test_a_hit_is_a_lane_whose_worker_ran_the_shard(self, backend):
        backend._lanes[0].seen = {"s"}  # noqa: SLF001
        assert self.route(backend, "s") == 0
        assert self.route(backend, "t") == 0
        stats = backend.pin_stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert "assignments" not in stats

    def test_a_rebuilt_lane_forgets_what_it_ran(self, backend):
        lane = backend._lanes[0]  # noqa: SLF001
        lane.seen = {"s"}
        backend._retire_lane(lane, dead_worker=True)  # noqa: SLF001
        assert lane.seen == set()
        assert self.route(backend) == 0
        stats = backend.pin_stats()
        assert (stats["hits"], stats["misses"], stats["dead_worker_fallbacks"]) == (0, 1, 1)

    def test_an_open_lane_is_passed_over_and_counted(self, backend):
        """An open breaker outranks load: the idle lane 0 is refused, and
        the dispatch counts as a short circuit."""
        lanes = backend._lanes  # noqa: SLF001
        lanes[0].open_until = time.monotonic() + 3600.0
        lanes[1].pending = 2
        lanes[2].pending = 1
        assert self.route(backend) == 2
        assert backend.breaker_stats()["short_circuits"] == 1
        lanes[0].open_until = 0.0
        assert self.route(backend) == 0
        assert backend.breaker_stats()["short_circuits"] == 1

    def test_a_lane_past_its_backoff_admits_one_probe(self, backend):
        lanes = backend._lanes  # noqa: SLF001
        lanes[0].open_until = time.monotonic() - 1.0
        assert self.route(backend) == 0
        assert lanes[0].probing
        assert backend.breaker_stats()["half_open_probes"] == 1
        # While the probe is out the lane admits nothing more.
        assert self.route(backend) == 1
        assert backend.breaker_stats()["half_open_probes"] == 1

    def test_all_lanes_open_force_probe_the_earliest(self, backend):
        now = time.monotonic()
        for lane, delay in zip(backend._lanes, (300.0, 100.0, 200.0)):  # noqa: SLF001
            lane.open_until = now + delay
        assert self.route(backend) == 1
        assert backend._lanes[1].probing  # noqa: SLF001
        assert backend.breaker_stats()["short_circuits"] == 1


class TestWorkerEngines:
    def test_a_worker_keeps_every_engine_it_built(self):
        engine_a, queries_a = random_instance(0)
        engine_b, queries_b = random_instance(7)
        backend = ProcessBackend(workers=1)
        try:
            handle_a = backend.register_engine(engine_a, key="res-a")
            handle_b = backend.register_engine(engine_b, key="res-b")
            outcomes = run_waves_of_one(
                backend,
                [
                    wave_of_one(handle_a.key, queries_a[0]),
                    wave_of_one(handle_b.key, queries_b[0]),
                    wave_of_one(handle_a.key, queries_a[0]),
                ],
            )
            assert all(outcome.ok for outcome in outcomes)
            (stats,) = backend.worker_stats().values()
            assert stats["builds"] == {"res-a": 1, "res-b": 1}
            assert sorted(stats["resident"]) == ["res-a", "res-b"]
        finally:
            backend.close()


class TestDeadWorkerFallback:
    def test_killed_worker_is_replaced_and_traffic_continues(self):
        engine, queries = random_instance(0)
        expected = engine.run(queries[0], algorithm="bucketbound")
        backend = ProcessBackend(workers=2)
        try:
            handle = backend.register_engine(engine, key="fragile")
            first = run_waves_of_one(backend, [wave_of_one(handle.key, queries[0])])
            assert first[0].ok

            # Kill the worker that served the warm-up wave.
            lane = served_lane(backend, handle.key)
            os.kill(backend.worker_stats()[lane]["pid"], signal.SIGKILL)
            time.sleep(0.1)

            # Traffic for the shard must keep flowing: the dead lane is
            # detected (at submit or completion), rebuilt, and the task
            # retried transparently.
            second = run_waves_of_one(backend, [wave_of_one(handle.key, queries[0])])
            assert second[0].ok, f"fallback failed: {second[0].error!r}"
            assert second[0].result.objective_score == expected.objective_score
            assert backend.pin_stats()["dead_worker_fallbacks"] >= 1
        finally:
            backend.close()

    def test_one_death_under_a_burst_counts_once_and_keeps_lanes_sane(self):
        """Several tasks sunk by the same dead worker must trigger one
        lane rebuild (not one per task) and leave pending counts at 0."""
        engine, queries = random_instance(0)
        backend = ProcessBackend(workers=2)
        try:
            handle = backend.register_engine(engine, key="burst")
            warm = run_waves_of_one(backend, [wave_of_one(handle.key, queries[0])])
            assert warm[0].ok

            lane = served_lane(backend, handle.key)
            os.kill(backend.worker_stats()[lane]["pid"], signal.SIGKILL)
            time.sleep(0.1)

            futures = [
                backend.submit_wave(wave_of_one(handle.key, queries[i % len(queries)]))
                for i in range(4)
            ]
            outcomes = [future.result(timeout=60.0)[0] for future in futures]
            assert all(outcome.ok for outcome in outcomes), [o.error for o in outcomes]
            # One dead worker == one fallback, however many tasks it sank.
            assert backend.pin_stats()["dead_worker_fallbacks"] == 1
            # Stale-generation completions must not drive pending negative.
            assert all(lane.pending == 0 for lane in backend._lanes)  # noqa: SLF001
        finally:
            backend.close()


class TestConstructionGuards:
    def test_invalid_worker_count_is_rejected(self):
        with pytest.raises(QueryError):
            ProcessBackend(workers=0)


class TestDepthSlots:
    """Depth accounting across dead-worker rebuild+retry.

    Regression guard: the depth count taken at ``submit_wave`` must be
    released exactly once per task even when the task's worker is
    SIGKILLed and the backend rebuilds the lane and retries — a leaked
    or doubled release would skew ``in_flight`` and ``queue_depth_peak``
    for good.
    """

    def test_repeated_sigkill_releases_each_slot_exactly_once(self):
        engine, queries = random_instance(0)
        backend = ProcessBackend(workers=2)
        try:
            handle = backend.register_engine(engine, key="slots")
            warm = run_waves_of_one(backend, [wave_of_one(handle.key, queries[0])])
            assert warm[0].ok
            assert backend.in_flight == 0
            # Every round kills the worker of the lane the warm-up wave
            # ran on; the retry rebuilds it for the next round.
            lane = served_lane(backend, handle.key)

            for round_number in range(3):
                os.kill(backend.worker_stats()[lane]["pid"], signal.SIGKILL)
                time.sleep(0.1)
                futures = [
                    backend.submit_wave(wave_of_one(handle.key, queries[i % len(queries)]))
                    for i in range(2)
                ]
                outcomes = [future.result(timeout=60.0)[0] for future in futures]
                assert all(outcome.ok for outcome in outcomes), [
                    outcome.error for outcome in outcomes
                ]
                # The invariant under test: every retried task gave its
                # slot back (exactly once — a double release would let
                # in_flight go negative on the next round's peak check).
                assert backend.in_flight == 0, f"slot leaked in round {round_number}"

            # A later burst is counted from zero: each of its tasks is in
            # flight once and released once.
            futures = [
                backend.submit_wave(wave_of_one(handle.key, queries[i % len(queries)]))
                for i in range(5)
            ]
            assert all(f.result(timeout=60.0)[0].ok for f in futures)
            assert backend.in_flight == 0
            assert backend.peak_in_flight <= 5
        finally:
            backend.close()
