"""Sharded waves: golden results, observability and chaos.

A sharded batch ships its searches on the cross-cell engine as
:class:`~repro.service.backends.WaveTask` waves (a lone query gets a
wave of one).  The contract is **fingerprint identity** with
``tests/golden/wave_fingerprints.json``: routes, scores, failure
reasons, per-label search statistics and the shard/outcome accounting,
for all six algorithms, on the serial and process backends and through
the async front end — plus the containment tiers (poisoned member /
wave-level failure / broken-wave member-wise resubmission) and the wave
occupancy counters in ``ServiceStats``.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ALGORITHMS
from repro.service import ProcessBackend, backend_from_name
from repro.service.faults import FaultPlan, FaultRule, injected
from repro.service.sharding import ShardedQueryService

from tests.core.test_kernels import GOLDEN, STAT_FIELDS, outcome_record
from tests.service.test_differential import fingerprint, random_instance
from tests.service.test_waves import served_outcomes

pytestmark = pytest.mark.timeout(300)


def _snapshot_view(service):
    """Task/outcome counters with the per-service key prefix stripped
    (two services over the same graph must agree on these)."""
    snapshot = service.stats.snapshot()
    strip = lambda d: {k.split("/", 1)[-1]: v for k, v in d.items()}  # noqa: E731
    return (
        strip(snapshot.shard_tasks),
        strip(snapshot.shard_errors),
        dict(snapshot.merge_wins),
    )


def _report_view(report):
    """Fingerprints plus the per-label search counters, slot by slot."""
    view = []
    for item in report.items:
        if item.error is not None:
            view.append((item.index, "error", type(item.error).__name__))
        else:
            view.append(
                (
                    item.index,
                    fingerprint(item.result),
                    tuple(getattr(item.result.stats, f) for f in STAT_FIELDS),
                )
            )
    return view


def _golden_view(service, outcomes) -> dict:
    """A sharded batch's ``(result, error)`` slots in the golden file's
    shape."""
    shard_tasks, shard_errors, merge_wins = _snapshot_view(service)
    return {
        "items": [outcome_record(result, error) for result, error in outcomes],
        "shard_tasks": shard_tasks,
        "shard_errors": shard_errors,
        "merge_wins": merge_wins,
    }


class TestShardedWaveDifferential:
    @pytest.mark.parametrize("backend_name", ("serial", "process"))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_scatter_reproduces_golden(self, algorithm, backend_name):
        """Waved results == the golden file, down to the per-label
        statistics and the shard/outcome accounting."""
        with backend_from_name(backend_name, workers=2) as backend:
            for seed in (0, 1):
                engine, queries = random_instance(seed)
                with ShardedQueryService(
                    engine.graph, num_cells=2, backend=backend, cache_capacity=0
                ) as service:
                    report = service.execute(queries, algorithm=algorithm)
                    assert (
                        _golden_view(service, [(item.result, item.error) for item in report.items])
                        == GOLDEN["sharded"][f"{algorithm}/seed-{seed}"]
                    ), f"seed={seed}"

    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_served_path_reproduces_golden(self, algorithm):
        """The async front end's coalesced micro-batch runs exactly as
        the sync batch does: same records, same accounting."""
        for seed in (0, 1):
            engine, queries = random_instance(seed)
            with ShardedQueryService(engine.graph, num_cells=2, cache_capacity=0) as service:
                outcomes = served_outcomes(service, queries, algorithm)
                assert (
                    _golden_view(service, outcomes)
                    == GOLDEN["sharded"][f"{algorithm}/seed-{seed}"]
                ), f"seed={seed}"

    def test_per_attempt_and_default_scatter_are_identical(self, service_backend, monkeypatch):
        """Waves of one (one submission per query) vs the default:
        same report, same shard/outcome accounting."""
        engine, queries = random_instance(0)
        waved = ShardedQueryService(
            engine.graph, num_cells=2, backend=service_backend, cache_capacity=0
        )
        per_attempt = ShardedQueryService(
            engine.graph, num_cells=2, backend=service_backend, cache_capacity=0
        )
        try:
            waved_report = waved.execute(queries)
            monkeypatch.setattr("repro.service.batch.DEFAULT_WAVE_SIZE", 1)
            per_attempt_report = per_attempt.execute(queries)
            assert _report_view(waved_report) == _report_view(per_attempt_report)
            assert _snapshot_view(waved) == _snapshot_view(per_attempt)
        finally:
            waved.close()
            per_attempt.close()

    def test_single_cell_waves_match_flat_engine(self, service_backend):
        """``num_cells=1``: the waves still answer exactly like the flat
        engine (the one cell's engine is the flat engine)."""
        engine, queries = random_instance(4)
        service = ShardedQueryService(
            engine.graph, num_cells=1, backend=service_backend, cache_capacity=0
        )
        try:
            report = service.execute(queries)
            for item in report.items:
                assert item.error is None
                assert fingerprint(item.result) == fingerprint(engine.run(item.query))
        finally:
            service.close()


class TestWaveObservability:
    def test_wave_counters_fill_and_reset(self, service_backend):
        engine, queries = random_instance(2)
        service = ShardedQueryService(
            engine.graph, num_cells=2, backend=service_backend, cache_capacity=0
        )
        try:
            service.execute(queries)
            waves = service.stats.snapshot().waves
            # 8 queries, one search each on the crosscell handle: at least
            # one real wave forms.
            assert waves["formed"] >= 1
            assert waves["members"] >= 2 * waves["formed"]
            assert waves["capacity"] >= waves["members"]
            assert 0.0 < waves["fill_rate"] <= 1.0
            assert waves["mean_members"] == waves["members"] / waves["formed"]
            assert "waves:" in service.stats.snapshot().describe()
            service.stats.reset()
            assert service.stats.snapshot().waves == {}
        finally:
            service.close()

    def test_wave_size_one_forms_no_waves(self, service_backend, monkeypatch):
        monkeypatch.setattr("repro.service.batch.DEFAULT_WAVE_SIZE", 1)
        engine, queries = random_instance(2)
        service = ShardedQueryService(
            engine.graph, num_cells=2, backend=service_backend, cache_capacity=0
        )
        try:
            service.execute(queries)
            snapshot = service.stats.snapshot()
            assert snapshot.waves["formed"] == 0
            # Every query went out as a wave of one.
            assert snapshot.waves["solo_fallbacks"] == sum(snapshot.shard_tasks.values())
        finally:
            service.close()


class TestWaveChaos:
    def test_kill_worker_mid_shard_wave_is_survived_identically(self):
        """SIGKILL under a shard wave: the dead-worker retry (and, past
        it, the member-wise resubmission tier) must deliver every slot an
        answer that is fingerprint-identical to the flat engine's."""
        engine, queries = random_instance(3)
        baseline = [fingerprint(engine.run(q)) for q in queries]
        backend = ProcessBackend(workers=2)
        try:
            service = ShardedQueryService(
                engine.graph, num_cells=2, backend=backend, cache_capacity=0
            )
            plan = FaultPlan([FaultRule(kind="kill_worker", times=1)])
            with injected(plan):
                report = service.execute(queries)
            assert plan.fired() == {0: 1}
            for item, expected in zip(report.items, baseline):
                assert item.error is None
                assert fingerprint(item.result) == expected
        finally:
            backend.close()
