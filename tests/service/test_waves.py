"""Wave dispatch through the serving stack: golden results, containment.

Every unique computation of a batch ships inside a :class:`WaveTask`
(:func:`repro.service.batch.dispatch_waves`; a batch of one is a wave of
one).  These tests pin:

* **golden fingerprints** — on serial, thread and process backends a
  batch reproduces ``tests/golden/wave_fingerprints.json``, what the
  deleted lockstep path produced for the same seeded streams, per-label
  statistics included; chunking (``wave_size=1`` vs default vs 2) never
  changes a slot;
* the three containment tiers:

  1. a poisoned member (unbindable query, injected fault) errors only
     its slot, on every backend;
  2. a *wave-level* failure inside the worker (``run_wave`` itself
     raising) still yields one outcome per member;
  3. a wave whose *submission* breaks (future raises or is cancelled)
     is resubmitted member by member as waves of one, and a member
     whose retry breaks too reports the error in its own slot.
"""

from __future__ import annotations

from concurrent.futures import Future

import pytest

from repro.core.engine import ALGORITHMS
from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.service import (
    ProcessBackend,
    QueryService,
    SerialBackend,
    WaveTask,
    backend_from_name,
    run_wave_on_engine,
)
from repro.service.batch import DEFAULT_WAVE_SIZE, execute_batch
from repro.service.cache import ResultCache
from repro.service.stats import ServiceStats

from tests.core.test_kernels import (
    GOLDEN,
    LABEL_ALGORITHMS,
    STRATEGIES_OFF,
    outcome_record,
)
from tests.service.test_differential import fingerprint, random_instance

pytestmark = pytest.mark.timeout(300)

BACKENDS = ("serial", "thread", "process")


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
            handles = [
                backend.register_engine(engine, key=f"golden-{seed}")
                for seed, (engine, _queries) in enumerate(instances)
            ]
            for seed, ((_engine, queries), handle) in enumerate(zip(instances, handles)):
                report = execute_batch(
                    ResultCache(0), queries, algorithm=algorithm, backend=backend, handle=handle
                )
                assert [
                    outcome_record(item.result, item.error) for item in report.items
                ] == GOLDEN["flat"][f"{algorithm}/strategies-on/seed-{seed}"], f"seed={seed}"

    @pytest.mark.parametrize("backend_name", BACKENDS)
    @pytest.mark.parametrize("algorithm", LABEL_ALGORITHMS)
    def test_batches_reproduce_golden_with_strategies_off(self, algorithm, backend_name):
        engine, queries = random_instance(0)
        with backend_from_name(backend_name, workers=2) as backend:
            report = execute_batch(
                ResultCache(0),
                queries,
                algorithm=algorithm,
                params=STRATEGIES_OFF,
                backend=backend,
                handle=backend.register_engine(engine, key="golden-off"),
            )
        assert [
            outcome_record(item.result, item.error) for item in report.items
        ] == GOLDEN["flat"][f"{algorithm}/strategies-off/seed-0"]

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_per_query_and_default_waves_are_identical(self, algorithm, service_backend):
        """``wave_size=1`` (one submission per query) vs the default:
        same report; only the occupancy counters tell them apart."""
        engine, queries = random_instance(0)
        handle = service_backend.register_engine(engine, key="wave-diff")
        views, waves = [], []
        for wave_size in (DEFAULT_WAVE_SIZE, 1):
            stats = ServiceStats()
            report = execute_batch(
                ResultCache(0),
                queries,
                algorithm=algorithm,
                backend=service_backend,
                handle=handle,
                wave_size=wave_size,
                stats=stats,
            )
            views.append(_report_view(report))
            waves.append(stats.snapshot().waves)
        assert views[0] == views[1]
        assert (waves[0]["formed"], waves[0]["members"], waves[0]["solo_fallbacks"]) == (
            1,
            len(queries),
            0,
        )
        assert (waves[1]["formed"], waves[1]["solo_fallbacks"]) == (0, len(queries))

    def test_small_wave_size_chunks_correctly(self, service_backend):
        """wave_size=2 forces several waves per batch; slots stay exact."""
        engine, queries = random_instance(1)
        handle = service_backend.register_engine(engine, key="chunks")
        baseline = [fingerprint(engine.run(q)) for q in queries]
        stats = ServiceStats()
        report = execute_batch(
            ResultCache(0),
            queries,
            backend=service_backend,
            handle=handle,
            wave_size=2,
            stats=stats,
        )
        assert report.ok
        assert [fingerprint(item.result) for item in report.items] == baseline
        waves = stats.snapshot().waves
        assert (waves["formed"], waves["members"], waves["capacity"]) == (4, 8, 8)

    def test_a_batch_of_one_is_a_wave_of_one(self, service_backend):
        engine, queries = random_instance(1)
        handle = service_backend.register_engine(engine, key="solo")
        stats = ServiceStats()
        report = execute_batch(
            ResultCache(0), queries[:1], backend=service_backend, handle=handle, stats=stats
        )
        assert fingerprint(report.items[0].result) == fingerprint(engine.run(queries[0]))
        waves = stats.snapshot().waves
        assert (waves["formed"], waves["solo_fallbacks"]) == (0, 1)

    def test_service_wave_size_one_answers_identically(self):
        """wave_size=1 on the service still answers identically."""
        engine, queries = random_instance(2)
        with QueryService(engine, cache_capacity=0) as waved:
            with QueryService(engine, cache_capacity=0, wave_size=1) as per_query:
                assert _report_view(waved.execute(queries)) == _report_view(
                    per_query.execute(queries)
                )


class TestPoisonedMember:
    def test_unbindable_member_poisons_only_its_slot(self, service_backend):
        """Tier 1: a query that cannot bind errors its own slot; every
        other slot matches the flat engine (kernel survivors included)."""
        engine, queries = random_instance(3)
        bad = KORQuery(9_999, queries[0].target, queries[0].keywords, 5.0)
        batch = list(queries[:4]) + [bad] + list(queries[4:])
        handle = service_backend.register_engine(engine, key="poison")
        report = execute_batch(ResultCache(0), batch, backend=service_backend, handle=handle)
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
    def test_broken_run_wave_yields_one_outcome_per_member(self, monkeypatch):
        """Tier 2: if run_wave itself explodes, run_wave_on_engine still
        answers for every member — each with that error."""
        import repro.service.backends as backends_mod

        engine, queries = random_instance(5)

        def boom(*args, **kwargs):
            raise RuntimeError("wave exploded")

        monkeypatch.setattr(backends_mod, "run_wave", boom)
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
        handle = backend.register_engine(engine, key="broken")
        stats = ServiceStats()
        report = execute_batch(
            ResultCache(0), queries, backend=backend, handle=handle, stats=stats
        )
        unique = len(set(queries))  # in-batch dedup: one member per distinct query
        assert backend.submissions == [unique] + [1] * unique
        assert report.ok
        assert [fingerprint(item.result) for item in report.items] == [
            fingerprint(engine.run(q)) for q in queries
        ]
        waves = stats.snapshot().waves
        assert (waves["formed"], waves["solo_fallbacks"]) == (1, unique)

    def test_twice_broken_submission_reports_per_slot_errors(self):
        """Past the member-wise retry there is nothing left to try: every
        slot carries the submission error, nothing raises out of the
        batch and nothing is cached."""
        engine, queries = random_instance(6)
        backend = _BrokenWaveBackend(RuntimeError("lane sank mid-wave"), break_singles=True)
        handle = backend.register_engine(engine, key="broken-twice")
        cache = ResultCache(64)
        report = execute_batch(cache, queries, backend=backend, handle=handle)
        assert set(report.errors) == set(range(len(queries)))
        assert all(isinstance(error, RuntimeError) for error in report.errors.values())
        assert len(cache) == 0

    def test_cancelled_submission_reports_cancelled_slots_as_errors(self):
        """A cancelled wave future folds into per-slot QueryError
        outcomes instead of raising out of the batch."""
        engine, queries = random_instance(0)
        backend = _BrokenWaveBackend("cancel", break_singles=True)
        handle = backend.register_engine(engine, key="slots")
        report = execute_batch(ResultCache(0), queries[:3], backend=backend, handle=handle)
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

    def test_wave_occupies_one_admission_slot(self):
        engine, queries = random_instance(1)
        backend = SerialBackend(max_in_flight=1)
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
