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
from repro.service import ProcessBackend, ShardedQueryService

from tests.service.test_backends import run_waves_of_one, wave_of_one
from tests.service.test_differential import random_instance


def build_backend(**kwargs) -> ProcessBackend:
    kwargs.setdefault("workers", 2)
    # A generous spill margin keeps routing deterministic in tests that
    # assert *affinity*; the spill test sets its own margin.
    kwargs.setdefault("spill_margin", 1_000)
    return ProcessBackend(**kwargs)


class TestAffinity:
    def test_repeat_traffic_builds_engine_in_exactly_one_worker(self):
        engine_a, queries_a = random_instance(0)
        engine_b, queries_b = random_instance(7)
        backend = build_backend()
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
        backend = build_backend()
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

    def test_saturated_pin_spills_to_least_loaded_lane(self):
        engine, queries = random_instance(0)
        backend = build_backend(spill_margin=0)
        try:
            handle = backend.register_engine(engine, key="hot-shard")
            # A burst submitted without waiting: the pinned lane's queue
            # grows, and with margin 0 later tasks must spill.
            futures = [
                backend.submit_wave(wave_of_one(handle.key, queries[i % len(queries)]))
                for i in range(8)
            ]
            outcomes = [future.result()[0] for future in futures]
            assert all(outcome.ok for outcome in outcomes)
            pins = backend.pin_stats()
            assert pins["assignments"] == 1
            assert pins["misses"] > 0  # the burst outran the single lane
        finally:
            backend.close()


class TestWorkerEngineLRU:
    def test_budget_evicts_and_rebuilds_without_wrong_answers(self):
        engine_a, queries_a = random_instance(0)
        engine_b, queries_b = random_instance(7)
        expected_a = engine_a.run(queries_a[0], algorithm="bucketbound")
        expected_b = engine_b.run(queries_b[0], algorithm="bucketbound")
        # One lane, a budget below any engine's weight: every shard
        # switch evicts the resident engine and rebuilds on return.
        backend = ProcessBackend(workers=1, max_worker_engine_bytes=1, spill_margin=1_000)
        try:
            handle_a = backend.register_engine(engine_a, key="lru-a")
            handle_b = backend.register_engine(engine_b, key="lru-b")
            plan = [
                wave_of_one(handle_a.key, queries_a[0]),
                wave_of_one(handle_b.key, queries_b[0]),
                wave_of_one(handle_a.key, queries_a[0]),
            ]
            outcomes = run_waves_of_one(backend, plan)
            assert all(outcome.ok for outcome in outcomes)
            assert outcomes[0].result.objective_score == expected_a.objective_score
            assert outcomes[1].result.objective_score == expected_b.objective_score
            assert outcomes[2].result.objective_score == expected_a.objective_score

            (stats,) = backend.worker_stats().values()
            assert stats["evictions"] >= 2  # a evicted by b, b by a's return
            assert stats["builds"]["lru-a"] == 2  # rebuilt after eviction
            assert len(stats["resident"]) == 1  # budget keeps exactly one
        finally:
            backend.close()

    def test_no_budget_keeps_every_engine_resident(self):
        engine_a, queries_a = random_instance(0)
        engine_b, queries_b = random_instance(7)
        backend = ProcessBackend(workers=1, spill_margin=1_000)
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
            assert stats["evictions"] == 0
            assert stats["builds"] == {"res-a": 1, "res-b": 1}
            assert sorted(stats["resident"]) == ["res-a", "res-b"]
        finally:
            backend.close()


class TestDeadWorkerFallback:
    def test_killed_worker_is_replaced_and_traffic_continues(self):
        engine, queries = random_instance(0)
        expected = engine.run(queries[0], algorithm="bucketbound")
        backend = build_backend(workers=2)
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
        backend = build_backend(workers=2)
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
    def test_invalid_knobs_are_rejected(self):
        with pytest.raises(QueryError):
            ProcessBackend(workers=0)
        with pytest.raises(QueryError):
            ProcessBackend(max_worker_engine_bytes=-1)
        with pytest.raises(QueryError):
            ProcessBackend(spill_margin=-1)
        with pytest.raises(QueryError):
            ProcessBackend(max_in_flight=0)


class TestAdmissionSlots:
    """``max_in_flight`` accounting across dead-worker rebuild+retry.

    Regression guard: the admission slot taken at ``submit_wave`` must
    be released exactly once per task even when the task's worker is
    SIGKILLed and the backend rebuilds the lane and retries — a leaked
    slot would shrink admission until it deadlocks.
    """

    def test_repeated_sigkill_releases_each_slot_exactly_once(self):
        import threading

        engine, queries = random_instance(0)
        backend = build_backend(workers=2, max_in_flight=2)
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

            # Admission must still turn over: a burst larger than
            # max_in_flight completes only if all slots were returned.
            # Submit from a helper thread so a leak shows up as a test
            # failure, not an indefinite hang on the admission gate.
            box: dict = {}

            def submit_burst():
                box["futures"] = [
                    backend.submit_wave(wave_of_one(handle.key, queries[i % len(queries)]))
                    for i in range(5)
                ]

            submitter = threading.Thread(target=submit_burst)
            submitter.start()
            submitter.join(timeout=30.0)
            assert not submitter.is_alive(), "admission gate deadlocked: slot leak"
            assert all(f.result(timeout=60.0)[0].ok for f in box["futures"])
            assert backend.in_flight == 0
            assert backend.peak_in_flight <= 2
        finally:
            backend.close()
