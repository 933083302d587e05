"""Wave dispatch through the serving stack: golden results, containment.

Every unique computation of a batch ships inside a :class:`WaveTask`
(:func:`repro.service.batch.dispatch_waves`; a batch of one is a wave of
one).  These tests pin:

* **golden fingerprints** — on the serial and process backends a
  batch reproduces ``tests/golden/wave_fingerprints.json``, what the
  deleted lockstep path produced for the same seeded streams, per-label
  statistics included, and so does the served path (the async front
  end, whatever its micro-batch size); chunking (``DEFAULT_WAVE_SIZE``
  patched to 1 or 2 vs the default) never changes a slot;
* the three containment tiers:

  1. a poisoned member (unbindable query, injected fault) errors only
     its slot, on every backend;
  2. a *wave-level* failure inside the worker (the wave's shared
     candidate-set pass raising) still yields one outcome per member;
  3. a wave whose *submission* breaks (future raises or is cancelled)
     is resubmitted member by member as waves of one, and a member
     whose retry breaks too reports the error in its own slot.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import Future

import pytest

from repro.core.engine import ALGORITHMS
from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.service import (
    AsyncQueryService,
    ProcessBackend,
    QueryService,
    SerialBackend,
    WaveTask,
    backend_from_name,
    run_wave_on_engine,
)
from repro.service.batch import DEFAULT_WAVE_SIZE

from tests.core.test_kernels import (
    GOLDEN,
    LABEL_ALGORITHMS,
    STRATEGIES_OFF,
    outcome_record,
)
from tests.service.test_differential import fingerprint, random_instance

pytestmark = pytest.mark.timeout(300)

BACKENDS = ("serial", "process")


def served_outcomes(service, queries, algorithm: str, max_batch: int = 64, **params) -> list:
    """Every query awaited concurrently through the async front end: one
    ``(result, error)`` pair per slot."""

    async def drive():
        async with AsyncQueryService(service, max_batch=max_batch) as front:
            return await asyncio.gather(
                *(front.submit(query, algorithm=algorithm, **params) for query in queries),
                return_exceptions=True,
            )

    return [
        (None, outcome) if isinstance(outcome, Exception) else (outcome, None)
        for outcome in asyncio.run(drive())
    ]


def _report_view(report):
    return [
        (item.index, fingerprint(item.result))
        if item.error is None
        else (item.index, "error", type(item.error).__name__)
        for item in report.items
    ]


class TestWaveBatchGolden:
    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_batches_reproduce_golden(self, algorithm, backend_name):
        with backend_from_name(backend_name, workers=2) as backend:
            instances = [random_instance(seed) for seed in (0, 1)]
            services = [
                QueryService(engine, cache_capacity=0, backend=backend)
                for engine, _queries in instances
            ]
            for seed, ((_engine, queries), service) in enumerate(zip(instances, services)):
                report = service.execute(queries, algorithm=algorithm)
                assert [
                    outcome_record(item.result, item.error) for item in report.items
                ] == GOLDEN["flat"][f"{algorithm}/strategies-on/seed-{seed}"], f"seed={seed}"

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("algorithm", LABEL_ALGORITHMS)
    def test_batches_reproduce_golden_with_strategies_off(self, algorithm, backend_name):
        engine, queries = random_instance(0)
        with backend_from_name(backend_name, workers=2) as backend:
            service = QueryService(engine, cache_capacity=0, backend=backend)
            report = service.execute(queries, algorithm=algorithm, **STRATEGIES_OFF)
        assert [
            outcome_record(item.result, item.error) for item in report.items
        ] == GOLDEN["flat"][f"{algorithm}/strategies-off/seed-0"]

    @pytest.mark.parametrize("max_batch", (1, 64))
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_served_path_reproduces_golden(self, algorithm, max_batch):
        """Through the async front end, one micro-batch per request
        (``max_batch=1``: concurrent inline waves on executor threads)
        or one for all of them."""
        for seed in (0, 1):
            engine, queries = random_instance(seed)
            with QueryService(engine, cache_capacity=0) as service:
                outcomes = served_outcomes(service, queries, algorithm, max_batch=max_batch)
                assert [
                    outcome_record(result, error) for result, error in outcomes
                ] == GOLDEN["flat"][f"{algorithm}/strategies-on/seed-{seed}"], f"seed={seed}"

    @pytest.mark.parametrize("algorithm", LABEL_ALGORITHMS)
    def test_served_path_reproduces_golden_with_strategies_off(self, algorithm):
        engine, queries = random_instance(0)
        with QueryService(engine, cache_capacity=0) as service:
            outcomes = served_outcomes(service, queries, algorithm, **STRATEGIES_OFF)
        assert [
            outcome_record(result, error) for result, error in outcomes
        ] == GOLDEN["flat"][f"{algorithm}/strategies-off/seed-0"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_per_query_and_default_waves_are_identical(
        self, algorithm, service_backend, monkeypatch
    ):
        """Waves of one (one submission per query) vs the default: same
        report; only the occupancy counters tell them apart."""
        engine, queries = random_instance(0)
        views, waves = [], []
        for wave_size in (DEFAULT_WAVE_SIZE, 1):
            monkeypatch.setattr("repro.service.batch.DEFAULT_WAVE_SIZE", wave_size)
            with QueryService(engine, cache_capacity=0, backend=service_backend) as service:
                report = service.execute(queries, algorithm=algorithm)
            views.append(_report_view(report))
            waves.append(service.snapshot().waves)
        assert views[0] == views[1]
        assert (waves[0]["formed"], waves[0]["members"], waves[0]["solo_fallbacks"]) == (
            1,
            len(queries),
            0,
        )
        assert (waves[1]["formed"], waves[1]["solo_fallbacks"]) == (0, len(queries))

    def test_small_wave_size_chunks_correctly(self, service_backend, monkeypatch):
        """Waves of 2 force several waves per batch; slots stay exact."""
        monkeypatch.setattr("repro.service.batch.DEFAULT_WAVE_SIZE", 2)
        engine, queries = random_instance(1)
        baseline = [fingerprint(engine.run(q)) for q in queries]
        service = QueryService(engine, cache_capacity=0, backend=service_backend)
        report = service.execute(queries)
        assert report.ok
        assert [fingerprint(item.result) for item in report.items] == baseline
        waves = service.snapshot().waves
        assert (waves["formed"], waves["members"], waves["capacity"]) == (4, 8, 8)

    def test_a_batch_of_one_is_a_wave_of_one(self, service_backend):
        engine, queries = random_instance(1)
        service = QueryService(engine, cache_capacity=0, backend=service_backend)
        report = service.execute(queries[:1])
        assert fingerprint(report.items[0].result) == fingerprint(engine.run(queries[0]))
        waves = service.snapshot().waves
        assert (waves["formed"], waves["solo_fallbacks"]) == (0, 1)

    def test_service_wave_size_one_answers_identically(self, monkeypatch):
        """Waves of one on the service still answer identically."""
        engine, queries = random_instance(2)
        with QueryService(engine, cache_capacity=0) as service:
            waved = _report_view(service.execute(queries))
            monkeypatch.setattr("repro.service.batch.DEFAULT_WAVE_SIZE", 1)
            assert _report_view(service.execute(queries)) == waved
            assert service.snapshot().waves["formed"] == 1


class TestPoisonedMember:
    def test_unbindable_member_poisons_only_its_slot(self, service_backend):
        """Tier 1: a query that cannot bind errors its own slot; every
        other slot matches the flat engine (kernel survivors included)."""
        engine, queries = random_instance(3)
        bad = KORQuery(9_999, queries[0].target, queries[0].keywords, 5.0)
        batch = list(queries[:4]) + [bad] + list(queries[4:])
        service = QueryService(engine, cache_capacity=0, backend=service_backend)
        report = service.execute(batch)
        assert set(report.errors) == {4}
        assert isinstance(report.errors[4], QueryError)
        for item in report.items:
            if item.index != 4:
                assert fingerprint(item.result) == fingerprint(engine.run(item.query))

    def test_poisoned_member_error_crosses_the_process_boundary(self):
        engine, queries = random_instance(4)
        bad = KORQuery(9_999, queries[0].target, queries[0].keywords, 5.0)
        backend = ProcessBackend(workers=2)
        try:
            backend.register_engine(engine, key="remote-poison")
            task = WaveTask.build("remote-poison", [queries[0], bad, queries[1]], "bucketbound")
            outcomes = backend.submit_wave(task).result()
            assert outcomes[0].ok and outcomes[2].ok
            assert isinstance(outcomes[1].error, QueryError)
            assert fingerprint(outcomes[0].result) == fingerprint(engine.run(queries[0]))
        finally:
            backend.close()


class _BrokenWaveBackend(SerialBackend):
    """A backend whose multi-member wave submissions resolve to *verdict*
    (an exception to raise, or ``"cancel"``); waves of one run normally
    unless ``break_singles`` is set too.

    SerialBackend is in-process; that makes no difference here — the
    submission-level fallback is the same code on every backend."""

    def __init__(self, verdict, break_singles: bool = False):
        super().__init__()
        self.verdict = verdict
        self.break_singles = break_singles
        self.submissions: list[int] = []

    def _submit_wave(self, task):
        self.submissions.append(len(task.queries))
        if len(task.queries) == 1 and not self.break_singles:
            return super()._submit_wave(task)
        future: Future = Future()
        if self.verdict == "cancel":
            future.cancel()
            future.set_running_or_notify_cancel()
        else:
            future.set_exception(self.verdict)
        return future


class TestWaveLevelFailure:
    def test_broken_candidate_pass_yields_one_outcome_per_member(self, monkeypatch):
        """Tier 2: if the wave's shared candidate-set pass explodes,
        run_wave_on_engine still answers for every member — each with
        that error."""
        engine, queries = random_instance(5)

        def boom(*args, **kwargs):
            raise RuntimeError("wave exploded")

        monkeypatch.setattr(engine, "candidate_sets", boom)
        task = WaveTask.build("s", queries, "osscaling")
        outcomes = run_wave_on_engine(engine, task)
        assert len(outcomes) == len(queries)
        assert all(isinstance(o.error, RuntimeError) for o in outcomes)
        assert not any(o.ok for o in outcomes)

    def test_broken_wave_submission_resubmits_members(self):
        """Tier 3: a backend whose wave futures fail outright still
        serves the batch — the executor falls back to waves of one."""
        engine, queries = random_instance(6)
        backend = _BrokenWaveBackend(RuntimeError("lane sank mid-wave"))
        service = QueryService(engine, cache_capacity=0, backend=backend)
        report = service.execute(queries)
        unique = len(set(queries))  # in-batch dedup: one member per distinct query
        assert backend.submissions == [unique] + [1] * unique
        assert report.ok
        assert [fingerprint(item.result) for item in report.items] == [
            fingerprint(engine.run(q)) for q in queries
        ]
        waves = service.snapshot().waves
        assert (waves["formed"], waves["solo_fallbacks"]) == (1, unique)

    def test_twice_broken_submission_reports_per_slot_errors(self):
        """Past the member-wise retry there is nothing left to try: every
        slot carries the submission error, nothing raises out of the
        batch and nothing is cached."""
        engine, queries = random_instance(6)
        backend = _BrokenWaveBackend(RuntimeError("lane sank mid-wave"), break_singles=True)
        service = QueryService(engine, cache_capacity=64, backend=backend)
        report = service.execute(queries)
        assert set(report.errors) == set(range(len(queries)))
        assert all(isinstance(error, RuntimeError) for error in report.errors.values())
        assert len(service.cache) == 0

    def test_cancelled_submission_reports_cancelled_slots_as_errors(self):
        """A cancelled wave future folds into per-slot QueryError
        outcomes instead of raising out of the batch."""
        engine, queries = random_instance(0)
        backend = _BrokenWaveBackend("cancel", break_singles=True)
        service = QueryService(engine, cache_capacity=0, backend=backend)
        report = service.execute(queries[:3])
        assert set(report.errors) == {0, 1, 2}
        for error in report.errors.values():
            assert isinstance(error, QueryError)
            assert "cancelled" in str(error)


class TestWaveTaskShape:
    def test_build_normalises_params(self):
        q = KORQuery(0, 1, ("a",), 5.0)
        task = WaveTask.build("s", [q], "osscaling", {"epsilon": 0.5, "use_strategy1": True})
        assert task.params == (("epsilon", 0.5), ("use_strategy1", True))
        assert task.queries == (q,)
        assert hash(task) == hash(WaveTask.build("s", [q], "osscaling", dict(task.params)))

    def test_unregistered_shard_fails_every_slot(self, service_backend):
        engine, queries = random_instance(0)
        task = WaveTask.build("nowhere", queries[:3], "bucketbound")
        outcomes = service_backend.submit_wave(task).result()
        assert len(outcomes) == 3
        assert all(isinstance(o.error, QueryError) for o in outcomes)

    def test_wave_counts_once_in_the_depth(self):
        engine, queries = random_instance(1)
        backend = SerialBackend()
        try:
            backend.register_engine(engine, key="adm")
            task = WaveTask.build("adm", queries, "greedy")
            outcomes = backend.submit_wave(task).result()
            assert len(outcomes) == len(queries)
            assert backend.peak_in_flight == 1
        finally:
            backend.close()


class TestWorkerState:
    def test_repeat_waves_reuse_worker_state(self):
        """Two waves on one process backend: the second reuses the
        worker's engine, answers stay identical."""
        engine, queries = random_instance(7)
        backend = ProcessBackend(workers=1)
        try:
            backend.register_engine(engine, key="warm")
            expected = [fingerprint(engine.run(q, algorithm="osscaling")) for q in queries]
            for _ in range(2):
                task = WaveTask.build("warm", queries, "osscaling")
                outcomes = backend.submit_wave(task).result()
                assert [fingerprint(o.result) for o in outcomes] == expected
            stats = backend.worker_stats()
            builds = next(iter(stats.values()))["builds"]
            assert builds.get("warm") == 1  # engine built once, not per wave
        finally:
            backend.close()
