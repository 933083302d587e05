"""Backend lifecycle edges: close idempotency, in-flight unregister,
cancellation of queued work, and submission depth accounting.

These are the contracts the async front-end leans on: futures must
resolve (or cancel) cleanly whatever the registry and pools do around
them.  The serial backend runs each wave inline in its caller, so its
in-flight cases are built from concurrent callers parked inside a
search (:class:`GatedEngine`).
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.exceptions import QueryError
from repro.service import ProcessBackend, SerialBackend
from repro.service.faults import FaultPlan, FaultRule, injected

from tests.service.test_backends import BACKEND_FACTORIES, run_waves_of_one, wave_of_one
from tests.service.test_differential import random_instance


class GatedEngine:
    """Engine proxy whose searches park on ``gate`` while it is cleared;
    ``running`` is released once per search that entered."""

    def __init__(self, engine) -> None:
        self._engine = engine
        self.gate = threading.Event()
        self.running = threading.Semaphore(0)

    def __getattr__(self, name):
        return getattr(self._engine, name)

    def run(self, *args, **kwargs):
        self.running.release()
        assert self.gate.wait(10.0), "the test never released the search"
        return self._engine.run(*args, **kwargs)


def submit_in_thread(backend, task) -> tuple[threading.Thread, list]:
    """Submit *task* from a fresh thread; its outcomes land in the list."""
    box: list = []
    thread = threading.Thread(target=lambda: box.append(backend.submit_wave(task).result()))
    thread.start()
    return thread, box


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
        """A wave running inline survives registry changes to *other* shards."""
        engine_a, queries_a = random_instance(0)
        engine_b, _ = random_instance(7)
        gated = GatedEngine(engine_a)
        backend = SerialBackend()
        handle_a = backend.register_engine(gated, key="stays")
        backend.register_engine(engine_b, key="goes")
        thread, box = submit_in_thread(backend, wave_of_one(handle_a.key, queries_a[0]))
        assert gated.running.acquire(timeout=10.0)
        backend.unregister("goes")
        gated.gate.set()
        thread.join(timeout=10.0)
        ((outcome,),) = box
        assert outcome.ok
        assert backend.shard_keys == ("stays",)

    def test_unregister_own_shard_mid_wave_finishes_it_and_refuses_the_next(self):
        """The running wave finishes on the engine it already holds; the
        next wave naming the vanished key reports a QueryError outcome —
        no hang, no crash, no poisoned future."""
        engine, queries = random_instance(0)
        gated = GatedEngine(engine)
        backend = SerialBackend()
        handle = backend.register_engine(gated, key="vanishing")
        thread, box = submit_in_thread(backend, wave_of_one(handle.key, queries[0]))
        assert gated.running.acquire(timeout=10.0)
        backend.unregister("vanishing")
        gated.gate.set()
        thread.join(timeout=10.0)
        ((running,),) = box
        assert running.ok
        (late,) = backend.submit_wave(wave_of_one(handle.key, queries[0])).result()
        assert not late.ok
        assert isinstance(late.error, QueryError)
        assert "not registered" in str(late.error)
        assert backend.in_flight == 0

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
            assert all(outcome.ok or isinstance(outcome.error, Exception) for outcome in outcomes)
            after = run_waves_of_one(backend, [wave_of_one(handle_a.key, queries_a[0])])
            assert after[0].ok
            assert backend.shard_keys == (handle_a.key,)
        finally:
            backend.close()


class TestCancellation:
    def test_cancel_submitted_but_unstarted_task(self):
        """A wave queued behind a busy lane can be cancelled before the
        worker picks it up; its depth count is returned and the lane
        keeps serving."""
        engine, queries = random_instance(0)
        plan = FaultPlan([FaultRule(kind="delay_task", shard="blocker", seconds=0.5)])
        with injected(plan):
            backend = ProcessBackend(workers=1)
            try:
                backend.register_engine(engine, key="blocker")
                backend.register_engine(engine, key="cancellable")
                blocker = backend.submit_wave(wave_of_one("blocker", queries[0]))
                queued = backend.submit_wave(wave_of_one("cancellable", queries[0]))
                assert queued.cancel(), "an unstarted wave must cancel"
                assert queued.cancelled()
                assert blocker.result(timeout=60.0)[0].ok
                (after,) = run_waves_of_one(backend, [wave_of_one("cancellable", queries[1])])
                assert after.ok
                # The done-callbacks released every slot, the cancelled one's too.
                deadline = time.time() + 5.0
                while backend.in_flight and time.time() < deadline:
                    time.sleep(0.01)
                assert backend.in_flight == 0
            finally:
                backend.close()


class TestDepthAccounting:
    def test_depth_counts_every_parked_caller(self):
        """Concurrent inline callers are all admitted at once; the depth
        gauge (``queue_depth_peak``) counts each."""
        engine, queries = random_instance(0)
        gated = GatedEngine(engine)
        backend = SerialBackend()
        handle = backend.register_engine(gated, key="gated")
        callers = [submit_in_thread(backend, wave_of_one(handle.key, q)) for q in queries[:3]]
        try:
            for _ in range(3):
                assert gated.running.acquire(timeout=10.0)
            assert backend.in_flight == 3
        finally:
            gated.gate.set()
            for thread, _box in callers:
                thread.join(timeout=10.0)
        assert [box[0][0].ok for _thread, box in callers] == [True] * 3
        assert (backend.peak_in_flight, backend.in_flight) == (3, 0)

    def test_serial_backend_counts_depth(self):
        engine, queries = random_instance(0)
        backend = SerialBackend()
        try:
            handle = backend.register_engine(engine, key="serial-depth")
            outcomes = run_waves_of_one(backend, [wave_of_one(handle.key, q) for q in queries[:3]])
            assert all(outcome.ok for outcome in outcomes)
            # Serial tasks resolve at submission: depth never exceeds 1.
            assert backend.peak_in_flight == 1
            assert backend.in_flight == 0
        finally:
            backend.close()

    def test_service_snapshot_surfaces_queue_depth(self):
        from repro.service import QueryService

        engine, queries = random_instance(0)
        backend = SerialBackend()
        try:
            service = QueryService(engine, cache_capacity=0, backend=backend)
            service.run_batch(queries, algorithm="bucketbound")
            snapshot = service.snapshot()
            assert snapshot.queue_depth_peak >= 1
        finally:
            backend.close()


class TestSubmitWaveProtocol:
    @pytest.mark.parametrize("name", [name for name, _ in BACKEND_FACTORIES])
    def test_one_by_one_and_all_at_once_submission_agree(self, name):
        """Awaiting each wave before the next and submitting them all
        before awaiting any give the same answers."""
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
                    assert single.result.objective_score == batched.result.objective_score
                    assert single.result.route == batched.result.route
        finally:
            backend.close()
