"""Chaos: seeded fault plans through the differential oracle.

Every test installs a deterministic :class:`~repro.service.faults.FaultPlan`
and drives a real workload through the serving stack.  The invariant is
always the same — **faults may cost errors or retries, never
silently-wrong routes**: every response that survives a fault plan must
be fingerprint-identical to the flat engine's answer for the same
query.

SIGKILL-based scenarios (worker storms, lane breakers) run only on the
process backend, which is the only tier with workers to kill.
"""

from __future__ import annotations

import time

import pytest

from repro.core.deadline import Deadline
from repro.core.engine import ALGORITHMS
from repro.exceptions import DeadlineExceeded
from repro.service import ProcessBackend, QueryService, SerialBackend, backends
from repro.service.cache import ResultCache
from repro.service.faults import (
    FaultInjected,
    FaultPlan,
    FaultRule,
    active,
    corrupt_then_invalidate,
    injected,
    install,
    worker_rules,
)

from tests.service.test_differential import fingerprint, random_instance

pytestmark = pytest.mark.timeout(300)


def _assert_survivors_match(report, baseline) -> int:
    """The chaos oracle: surviving slots == flat engine."""
    failed = 0
    for item, expected in zip(report.items, baseline):
        if item.result is None:
            failed += 1
            continue
        assert fingerprint(item.result) == expected, (
            f"slot {item.index} survived a fault plan with a silently "
            f"different answer"
        )
    return failed


class TestPlanMechanics:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(Exception, match="unknown fault kind"):
            FaultRule(kind="set_on_fire")

    def test_negative_counts_are_rejected(self):
        with pytest.raises(Exception, match=">= 0"):
            FaultRule(kind="delay_task", after=-1)

    def test_after_and_times_schedule_exact_events(self):
        plan = FaultPlan([FaultRule(kind="error_task", after=2, times=1)])

        class Task:
            shard = "default"

        for _ in range(2):
            plan.on_task(Task())  # the first two matching events pass
        with pytest.raises(FaultInjected):
            plan.on_task(Task())
        plan.on_task(Task())  # fired out; dormant again
        assert plan.fired() == {0: 1}
        assert plan.log == ["error_task default"]

    def test_install_clear_round_trip(self):
        assert active() is None
        plan = FaultPlan([FaultRule(kind="delay_task", seconds=0.0)])
        with injected(plan) as installed:
            assert installed is plan
            assert active() is plan
            assert worker_rules() == plan.rules
        assert active() is None
        assert worker_rules() == ()

    def test_worker_rules_ship_only_task_side_kinds(self):
        plan = FaultPlan(
            [
                FaultRule(kind="kill_worker"),
                FaultRule(kind="error_task", shard="x"),
                FaultRule(kind="drop_lane", lane=0),
            ]
        )
        kinds = {rule.kind for rule in plan.worker_rules()}
        assert kinds == {"error_task"}


class TestTaskFaults:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_error_fault_poisons_only_its_slots(self, algorithm):
        """In-process backends: exactly ``times`` slots fail with the
        injected error; every other slot matches the flat engine."""
        engine, queries = random_instance(0)
        baseline = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]
        backend = SerialBackend()
        plan = FaultPlan([FaultRule(kind="error_task", after=1, times=2)])
        service = QueryService(engine, cache_capacity=0, backend=backend)
        try:
            with injected(plan):
                report = service.execute(queries, algorithm=algorithm)
        finally:
            backend.close()
        failed = _assert_survivors_match(report, baseline)
        assert failed == len(report.errors)
        assert all(isinstance(error, FaultInjected) for error in report.errors.values())
        assert sum(plan.fired().values()) == 2
        # Slots can share a unit (coalescing): at least the fired
        # units failed, and nothing else did.
        assert failed >= 2

    def test_delay_fault_trips_the_deadline(self):
        """A slow-lane fault pushes the search past its deadline: the
        slot fails with DeadlineExceeded, and the retry (rule spent)
        answers correctly."""
        engine, queries = random_instance(1)
        query = queries[0]
        expected = fingerprint(engine.run(query))
        service = QueryService(engine, cache_capacity=64)
        plan = FaultPlan([FaultRule(kind="delay_task", seconds=0.1, times=1)])
        with injected(plan):
            with pytest.raises(DeadlineExceeded):
                service.submit(query, deadline=Deadline.after(0.02))
            assert plan.fired() == {0: 1}
            # Nothing was cached for the expired attempt...
            assert len(service.cache) == 0
            # ...and with the rule spent the same query answers cleanly.
            assert fingerprint(service.submit(query)) == expected


@pytest.mark.parametrize("algorithm", ("bucketbound", "greedy2"))
def test_kill_worker_is_survived_transparently(algorithm):
    """One SIGKILLed worker costs a dead-worker retry, never an answer."""
    engine, queries = random_instance(2)
    baseline = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]
    plan = install(FaultPlan([FaultRule(kind="kill_worker", times=1)]))
    backend = ProcessBackend(workers=2)
    try:
        service = QueryService(engine, cache_capacity=0, backend=backend)
        report = service.execute(queries, algorithm=algorithm)
        assert report.ok
        assert [fingerprint(item.result) for item in report.items] == baseline
        assert plan.fired() == {0: 1}
        assert "kill_worker" in plan.log[0]
        assert backend.pin_stats()["dead_worker_fallbacks"] >= 1
    finally:
        from repro.service import faults

        faults.clear()
        backend.close()


class TestLaneBreaker:
    def test_storm_opens_reroutes_and_reclosing_probe(self, monkeypatch):
        """The full breaker storyline on a two-lane backend:

        1. a ``drop_lane`` storm kills lane 0's worker on every dispatch
           until three consecutive dead-worker retires open its breaker;
        2. while open, work routes to the healthy lane (a
           short-circuit) and completes correctly;
        3. after the backoff, one half-open probe re-admits the lane and
           a completed task closes the breaker.
        """
        engine, queries = random_instance(3)
        expected = fingerprint(engine.run(queries[0]))
        # Five scheduled kills: tasks 1 and 2 lose both their first
        # attempt and their transparent retry (two kills each, two
        # failed slots, two consecutive dead-worker retires), task 3's
        # first attempt is the third retire — threshold reached.
        assert backends.BREAKER_THRESHOLD == 3
        monkeypatch.setattr(backends, "BREAKER_BACKOFF_SECONDS", 0.5)
        plan = install(FaultPlan([FaultRule(kind="drop_lane", lane=0, times=5)]))
        backend = ProcessBackend(workers=2)
        try:
            service = QueryService(engine, cache_capacity=0, backend=backend)

            for _ in range(2):
                report = service.execute([queries[0]])
                assert not report.ok

            # The third storm batch opens the breaker; its dead-worker
            # retry routes to lane 1 and still answers correctly.
            report = service.execute([queries[0]])
            assert report.ok
            assert fingerprint(report.items[0].result) == expected
            stats = backend.breaker_stats()
            assert stats["opened"] == 1
            assert stats["short_circuits"] >= 1
            assert stats["lanes"][0]["state"] in ("open", "half_open")
            assert stats["lanes"][1]["state"] == "closed"
            assert sum(plan.fired().values()) == 5

            # While open, new work routes around lane 0 entirely.
            report = service.execute([queries[1]])
            assert report.ok
            assert backend.breaker_stats()["opened"] == 1

            # Past the backoff, lane 0 is probed half-open (sequential
            # traffic ties to the lowest index) and one completed task
            # closes the breaker again.
            time.sleep(0.6)
            report = service.execute([queries[0]])
            assert report.ok
            assert fingerprint(report.items[0].result) == expected
            stats = backend.breaker_stats()
            assert stats["closed"] == 1
            assert stats["half_open_probes"] >= 1
            assert all(lane["state"] == "closed" for lane in stats["lanes"])
            assert all(lane["failures"] == 0 for lane in stats["lanes"])
        finally:
            from repro.service import faults

            faults.clear()
            backend.close()


class TestChaosDifferential:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_mixed_plan_in_process(self, algorithm):
        """Delay + error chaos on the serial backend: zero silent wrongs."""
        engine, queries = random_instance(4)
        baseline = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]
        backend = SerialBackend()
        plan = FaultPlan(
            [
                FaultRule(kind="delay_task", seconds=0.005, times=2),
                FaultRule(kind="error_task", after=3, times=2),
            ]
        )
        service = QueryService(engine, cache_capacity=0, backend=backend)
        try:
            with injected(plan):
                report = service.execute(queries, algorithm=algorithm)
        finally:
            backend.close()
        _assert_survivors_match(report, baseline)
        assert all(isinstance(error, FaultInjected) for error in report.errors.values())

    def test_mixed_plan_process_backend_all_algorithms(self):
        """Worker-side chaos on one process backend, all six algorithms.

        Task-side rules ship through the pool initializer, so each
        worker runs its own copy of the schedule; whatever subset of
        slots the faults hit, no surviving answer may differ from the
        flat engine.
        """
        engine, queries = random_instance(5)
        plan = install(
            FaultPlan(
                [
                    FaultRule(kind="delay_task", seconds=0.002, times=2),
                    FaultRule(kind="error_task", after=2, times=1),
                ]
            )
        )
        backend = ProcessBackend(workers=2)
        try:
            service = QueryService(engine, cache_capacity=0, backend=backend)
            for algorithm in ALGORITHMS:
                baseline = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]
                report = service.execute(queries, algorithm=algorithm)
                _assert_survivors_match(report, baseline)
                assert all(isinstance(error, FaultInjected) for error in report.errors.values())
        finally:
            from repro.service import faults

            faults.clear()
            backend.close()


class TestChaosMidWave:
    """Fault plans against the wave dispatch path.

    Batches ship as :class:`~repro.service.backends.WaveTask` waves,
    so these plans hit the wave machinery head-on:
    parent-side kills land while a whole wave is in flight on one lane
    (the dead-worker retry must replay the *wave*), and task-side rules
    fire per member through the wave's ``on_member`` hook mid-batch.
    The oracle is unchanged: identical or failed, never silently
    wrong.
    """

    def test_kill_worker_mid_wave_is_survived(self):
        """SIGKILL under an in-flight wave: the lane rebuild
        replays the whole wave and every slot still answers exactly."""
        engine, queries = random_instance(7)
        baseline = [fingerprint(engine.run(q)) for q in queries]
        plan = install(FaultPlan([FaultRule(kind="kill_worker", times=1)]))
        backend = ProcessBackend(workers=2)
        try:
            service = QueryService(engine, cache_capacity=0, backend=backend)
            report = service.execute(queries)  # one wave of eight
            assert report.ok
            assert [fingerprint(item.result) for item in report.items] == baseline
            assert plan.fired() == {0: 1}
            assert backend.pin_stats()["dead_worker_fallbacks"] >= 1
        finally:
            from repro.service import faults

            faults.clear()
            backend.close()

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_error_fault_fires_per_wave_member(self, algorithm):
        """Task-side error rules hit individual wave members: exactly
        ``times`` units fail, survivors of the same wave stay exact."""
        engine, queries = random_instance(8)
        baseline = [fingerprint(engine.run(q, algorithm=algorithm)) for q in queries]
        backend = SerialBackend()
        plan = FaultPlan([FaultRule(kind="error_task", after=2, times=2)])
        service = QueryService(engine, cache_capacity=0, backend=backend)
        try:
            with injected(plan):
                report = service.execute(queries, algorithm=algorithm)
        finally:
            backend.close()
        failed = _assert_survivors_match(report, baseline)
        assert failed == len(report.errors) >= 2
        assert all(isinstance(error, FaultInjected) for error in report.errors.values())
        assert sum(plan.fired().values()) == 2

    def test_delay_fault_mid_wave_trips_the_wave_deadline(self):
        """A delayed member admission burns the wave's deadline: slots
        fail loudly with DeadlineExceeded (or the injected fault), none
        answer wrong, and the expired wave caches nothing."""
        engine, queries = random_instance(9)
        baseline = [fingerprint(engine.run(q)) for q in queries]
        plan = FaultPlan([FaultRule(kind="delay_task", seconds=0.1, times=1)])
        service = QueryService(engine, cache_capacity=64)
        with injected(plan):
            report = service.execute(queries, deadline=Deadline.after(0.02))
        _assert_survivors_match(report, baseline)
        assert not report.ok
        for error in report.errors.values():
            assert isinstance(error, (DeadlineExceeded, FaultInjected))
        assert len(service.cache) == sum(1 for item in report.items if item.ok)


class TestCacheFault:
    def test_corrupt_then_invalidate_is_unobservable(self):
        engine, queries = random_instance(6)
        good = engine.run(queries[0])
        bogus = engine.run(queries[1])
        cache = ResultCache(8)
        cache.put("k", good)

        stale_epoch = cache.epoch
        new_epoch = corrupt_then_invalidate(cache, "k", bogus)
        assert new_epoch != stale_epoch
        # The corrupt entry was wiped with the epoch...
        assert cache.get("k") is None
        assert cache.get("k", epoch=new_epoch) is None
        # ...and an in-flight write that captured the old epoch is
        # dropped on arrival: readers can never observe the bogus route.
        cache.put("k", bogus, epoch=stale_epoch)
        assert cache.get("k", epoch=new_epoch) is None
