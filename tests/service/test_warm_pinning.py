"""Warm-pinning: shard→worker affinity on the ProcessBackend.

The acceptance contract: with a multi-worker process backend, repeat
traffic for a shard shows a pin-hit rate > 0 in the service snapshot and
does **not** rebuild that shard's engine in other workers (asserted via
the per-worker build counters the workers expose).
"""

from __future__ import annotations

import os
import signal
import time

import pytest

from repro.exceptions import QueryError
from repro.service import ProcessBackend, ShardedQueryService, backends

from tests.service.test_backends import run_waves_of_one, wave_of_one
from tests.service.test_differential import random_instance


@pytest.fixture
def no_spill(monkeypatch):
    """A spill margin no test queue reaches keeps routing deterministic
    in tests that assert *affinity*."""
    monkeypatch.setattr(backends, "SPILL_MARGIN", 1_000)


@pytest.mark.usefixtures("no_spill")
class TestAffinity:
    def test_repeat_traffic_builds_engine_in_exactly_one_worker(self):
        engine_a, queries_a = random_instance(0)
        engine_b, queries_b = random_instance(7)
        backend = ProcessBackend(workers=2)
        try:
            handle_a = backend.register_engine(engine_a, key="shard-a")
            handle_b = backend.register_engine(engine_b, key="shard-b")
            tasks = [
                wave_of_one(handle_a.key, queries_a[i % len(queries_a)]) for i in range(6)
            ] + [wave_of_one(handle_b.key, queries_b[i % len(queries_b)]) for i in range(6)]
            for _ in range(2):  # two rounds of repeat traffic
                outcomes = run_waves_of_one(backend, tasks)
                assert all(outcome.ok for outcome in outcomes)

            pins = backend.pin_stats()
            assert pins["assignments"] == 2  # one pin per shard
            assert pins["hits"] > 0
            assert pins["misses"] == 0  # nothing saturated at this margin

            workers = backend.worker_stats()
            builds_a = [stats["builds"].get("shard-a", 0) for stats in workers.values()]
            builds_b = [stats["builds"].get("shard-b", 0) for stats in workers.values()]
            # Each engine was materialised exactly once, in exactly one
            # worker — the whole point of pinning.
            assert sorted(builds_a) == [0, 1]
            assert sorted(builds_b) == [0, 1]
        finally:
            backend.close()

    def test_sharded_service_snapshot_reports_pin_hits(self):
        """Acceptance: pin-hit rate > 0 through the full service stack."""
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
            assert snapshot.pinning, "snapshot should carry pinning counters"
            assert snapshot.pinning["hits"] > 0
            total = snapshot.pinning["hits"] + snapshot.pinning["misses"]
            assert snapshot.pinning["hits"] / total > 0.0
            service.close()
        finally:
            backend.close()


class TestSpill:
    def test_saturated_pin_spills_to_least_loaded_lane(self):
        engine, queries = random_instance(0)
        backend = ProcessBackend(workers=2)
        try:
            handle = backend.register_engine(engine, key="hot-shard")
            # A burst submitted without waiting while the lanes' workers
            # start: the pinned lane's queue runs more than SPILL_MARGIN
            # deeper than the idle lane, so later tasks must spill.
            futures = [
                backend.submit_wave(wave_of_one(handle.key, queries[i % len(queries)]))
                for i in range(4 * backends.SPILL_MARGIN)
            ]
            outcomes = [future.result()[0] for future in futures]
            assert all(outcome.ok for outcome in outcomes)
            pins = backend.pin_stats()
            assert pins["assignments"] == 1
            assert pins["misses"] > 0  # the burst outran the single lane
        finally:
            backend.close()


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


@pytest.mark.usefixtures("no_spill")
class TestDeadWorkerFallback:
    def test_killed_worker_is_replaced_and_traffic_continues(self):
        engine, queries = random_instance(0)
        expected = engine.run(queries[0], algorithm="bucketbound")
        backend = ProcessBackend(workers=2)
        try:
            handle = backend.register_engine(engine, key="fragile")
            first = run_waves_of_one(backend, [wave_of_one(handle.key, queries[0])])
            assert first[0].ok

            # Kill the pinned worker out from under the backend.
            workers = backend.worker_stats()
            pinned_lane = backend._pins[handle.key]  # noqa: SLF001 - test introspection
            os.kill(workers[pinned_lane]["pid"], signal.SIGKILL)
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

            workers = backend.worker_stats()
            pinned_lane = backend._pins[handle.key]  # noqa: SLF001 - test introspection
            os.kill(workers[pinned_lane]["pid"], signal.SIGKILL)
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


@pytest.mark.usefixtures("no_spill")
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

            for round_number in range(3):
                workers = backend.worker_stats()
                pinned_lane = backend._pins[handle.key]  # noqa: SLF001 - test introspection
                os.kill(workers[pinned_lane]["pid"], signal.SIGKILL)
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
