"""Backend lifecycle edges: close idempotency, in-flight unregister,
cancellation of queued work, and bounded admission accounting.

These are the contracts the async front-end leans on: futures must
resolve (or cancel) cleanly whatever the registry and pools do around
them.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import QueryError
from repro.service import (
    ProcessBackend,
    SerialBackend,
    ThreadBackend,
)

from tests.service.test_backends import BACKEND_FACTORIES, run_waves_of_one, wave_of_one
from tests.service.test_differential import random_instance


class TestCloseIdempotency:
    @pytest.mark.parametrize("name", [name for name, _ in BACKEND_FACTORIES])
    def test_double_close_then_reuse(self, name):
        """close() twice is fine, and a closed backend rebuilds lazily."""
        engine, queries = random_instance(0)
        backend = dict(BACKEND_FACTORIES)[name]()
        handle = backend.register_engine(engine, key="reuse")
        task = wave_of_one(handle.key, queries[0])
        assert run_waves_of_one(backend, [task])[0].ok
        backend.close()
        backend.close()
        # Pools are rebuilt lazily: the backend serves again after close.
        assert run_waves_of_one(backend, [task])[0].ok
        backend.close()

    def test_close_before_any_use_is_a_noop(self):
        for _name, factory in BACKEND_FACTORIES:
            backend = factory()
            backend.close()
            backend.close()


class TestUnregisterInFlight:
    def test_unregister_other_shard_does_not_disturb_running_task(self):
        """A task in flight survives registry changes to *other* shards."""
        engine_a, queries_a = random_instance(0)
        engine_b, _ = random_instance(7)
        backend = ThreadBackend(workers=1)
        try:
            handle_a = backend.register_engine(engine_a, key="stays")
            backend.register_engine(engine_b, key="goes")
            gate = threading.Event()
            blocker = backend.submit_call(gate.wait, 5.0)
            queued = backend.submit_wave(wave_of_one(handle_a.key, queries_a[0]))
            backend.unregister("goes")
            gate.set()
            (outcome,) = queued.result(timeout=10.0)
            assert outcome.ok
            assert blocker.result(timeout=10.0)
            assert backend.shard_keys == ("stays",)
        finally:
            backend.close()

    def test_unregister_own_shard_fails_the_queued_task_cleanly(self):
        """A task whose shard vanishes before execution reports a
        QueryError outcome — no hang, no crash, no poisoned future."""
        engine, queries = random_instance(0)
        backend = ThreadBackend(workers=1)
        try:
            handle = backend.register_engine(engine, key="vanishing")
            gate = threading.Event()
            backend.submit_call(gate.wait, 5.0)
            queued = backend.submit_wave(wave_of_one(handle.key, queries[0]))
            backend.unregister("vanishing")
            gate.set()
            (outcome,) = queued.result(timeout=10.0)
            assert not outcome.ok
            assert isinstance(outcome.error, QueryError)
            assert "not registered" in str(outcome.error)
        finally:
            backend.close()

    def test_process_backend_unregister_with_tasks_in_flight(self):
        """Registry changes retire lanes; in-flight futures still
        resolve and follow-up traffic uses the new handle set."""
        engine_a, queries_a = random_instance(0)
        engine_b, queries_b = random_instance(7)
        backend = ProcessBackend(workers=1)
        try:
            handle_a = backend.register_engine(engine_a, key="proc-a")
            handle_b = backend.register_engine(engine_b, key="proc-b")
            futures = [
                backend.submit_wave(wave_of_one(handle_a.key, queries_a[i % len(queries_a)]))
                for i in range(4)
            ]
            backend.unregister(handle_b.key)
            outcomes = [future.result(timeout=60.0)[0] for future in futures]
            # Every future resolved; tasks either ran before the retire
            # or failed cleanly — none may hang or crash the backend.
            assert all(
                outcome.ok or isinstance(outcome.error, Exception) for outcome in outcomes
            )
            after = run_waves_of_one(backend, [wave_of_one(handle_a.key, queries_a[0])])
            assert after[0].ok
            assert backend.shard_keys == (handle_a.key,)
        finally:
            backend.close()


class TestCancellation:
    def test_cancel_submitted_but_unstarted_task(self):
        """A queued task can be cancelled before a worker picks it up;
        the admission slot is returned."""
        engine, queries = random_instance(0)
        backend = ThreadBackend(workers=1)
        try:
            handle = backend.register_engine(engine, key="cancellable")
            gate = threading.Event()
            blocker = backend.submit_call(gate.wait, 5.0)
            queued = backend.submit_wave(wave_of_one(handle.key, queries[0]))
            assert queued.cancel(), "an unstarted pool task must cancel"
            gate.set()
            assert queued.cancelled()
            assert blocker.result(timeout=10.0)
            # The done-callback released the cancelled task's slot.
            deadline = time.time() + 5.0
            while backend.in_flight and time.time() < deadline:
                time.sleep(0.01)
            assert backend.in_flight == 0
        finally:
            backend.close()


class TestBoundedAdmission:
    def test_submissions_block_at_max_in_flight(self):
        backend = ThreadBackend(workers=2, max_in_flight=2)
        try:
            gate = threading.Event()
            first = backend.submit_call(gate.wait, 10.0)
            second = backend.submit_call(gate.wait, 10.0)
            assert backend.in_flight == 2

            third_admitted = threading.Event()
            third_result: list = []

            def oversubscribe():
                future = backend.submit_call(lambda: "ran")
                third_admitted.set()
                third_result.append(future.result(timeout=10.0))

            thread = threading.Thread(target=oversubscribe)
            thread.start()
            # The third submission must be *blocked*, not admitted.
            assert not third_admitted.wait(0.2)
            gate.set()
            thread.join(timeout=10.0)
            assert third_admitted.is_set()
            assert third_result == ["ran"]
            assert first.result(timeout=10.0) and second.result(timeout=10.0)

            assert backend.peak_in_flight == 2
            assert backend.admission_waits >= 1
        finally:
            backend.close()

    def test_serial_backend_counts_depth_without_blocking(self):
        engine, queries = random_instance(0)
        backend = SerialBackend(max_in_flight=1)
        try:
            handle = backend.register_engine(engine, key="serial-depth")
            outcomes = run_waves_of_one(
                backend, [wave_of_one(handle.key, q) for q in queries[:3]]
            )
            assert all(outcome.ok for outcome in outcomes)
            # Serial tasks resolve at submission: depth never exceeds 1
            # and nothing ever has to wait.
            assert backend.peak_in_flight == 1
            assert backend.in_flight == 0
            assert backend.admission_waits == 0
        finally:
            backend.close()

    def test_per_call_workers_narrow_the_submission_window(self):
        """submit_waves(workers=k) keeps at most k waves unresolved, in
        submission order, however wide the pool is."""
        engine, queries = random_instance(0)
        backend = ThreadBackend(workers=4)
        try:
            handle = backend.register_engine(engine, key="window")
            waves = [wave_of_one(handle.key, query) for query in queries]
            futures = backend.submit_waves(waves, workers=1)
            assert [future.result(timeout=10.0)[0].ok for future in futures] == [True] * len(waves)
            assert backend.peak_in_flight == 1
            with pytest.raises(QueryError):
                backend.submit_waves(waves, workers=0)
        finally:
            backend.close()

    def test_service_snapshot_surfaces_queue_depth(self):
        from repro.service import QueryService

        engine, queries = random_instance(0)
        backend = ThreadBackend(workers=2, max_in_flight=8)
        try:
            service = QueryService(engine, cache_capacity=0, backend=backend)
            service.run_batch(queries, algorithm="bucketbound")
            snapshot = service.snapshot()
            assert snapshot.queue_depth_peak >= 1
        finally:
            backend.close()


class TestSubmitWaveProtocol:
    @pytest.mark.parametrize("name", [name for name, _ in BACKEND_FACTORIES])
    def test_submit_wave_future_resolves_to_the_windowed_answer(self, name):
        """The futures primitive and its windowed list form agree exactly."""
        engine, queries = random_instance(3)
        backend = dict(BACKEND_FACTORIES)[name]()
        try:
            handle = backend.register_engine(engine, key="proto")
            tasks = [wave_of_one(handle.key, query) for query in queries]
            via_futures = [backend.submit_wave(task).result(timeout=60.0)[0] for task in tasks]
            batch = run_waves_of_one(backend, tasks)
            for single, batched in zip(via_futures, batch):
                assert single.ok == batched.ok
                if single.ok:
                    assert (
                        single.result.objective_score == batched.result.objective_score
                    )
                    assert single.result.route == batched.result.route
        finally:
            backend.close()

    def test_submit_call_rejected_out_of_process(self):
        backend = ProcessBackend(workers=1)
        try:
            with pytest.raises(QueryError, match="closures"):
                backend.submit_call(lambda: 1)
        finally:
            backend.close()
