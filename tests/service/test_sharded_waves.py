"""Shard-aware wave routing: golden results, observability and chaos.

The sharded scatter groups same-shard attempts into
:class:`~repro.service.backends.WaveTask` waves (one submission per
shard wave; a shard with one attempt gets a wave of one).  The contract
is **fingerprint identity** with ``tests/golden/wave_fingerprints.json``
— what the deleted lockstep path produced for the same seeded streams:
routes, scores, failure reasons, per-label search statistics and the
shard/merge accounting, for all six algorithms, on serial, thread and
process backends — plus the containment tiers (poisoned member /
wave-level failure / broken-wave member-wise resubmission) and the wave
occupancy counters in ``ServiceStats``.
"""

from __future__ import annotations

import pytest

from repro.core.engine import ALGORITHMS
from repro.service import ProcessBackend, backend_from_name
from repro.service.batch import (
    DEFAULT_WAVE_SIZE,
    MAX_WAVE_SIZE,
    WaveSizeController,
)
from repro.service.faults import FaultPlan, FaultRule, injected
from repro.service.sharding import ShardedQueryService

from tests.core.test_kernels import GOLDEN, STAT_FIELDS, outcome_record
from tests.service.test_differential import fingerprint, random_instance

pytestmark = pytest.mark.timeout(300)


def _snapshot_view(service):
    """Routing/merge counters with the per-service key prefix stripped
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
                    item.result.degraded,
                )
            )
    return view


def _golden_view(service, report) -> dict:
    """A sharded batch in the golden file's shape."""
    shard_tasks, shard_errors, merge_wins = _snapshot_view(service)
    return {
        "items": [
            outcome_record(item.result, item.error)
            if item.error is not None
            else {**outcome_record(item.result, None), "degraded": item.result.degraded}
            for item in report.items
        ],
        "shard_tasks": shard_tasks,
        "shard_errors": shard_errors,
        "merge_wins": merge_wins,
    }


class TestShardedWaveDifferential:
    @pytest.mark.parametrize("backend_name", ("serial", "thread", "process"))
    @pytest.mark.parametrize("algorithm", sorted(ALGORITHMS))
    def test_scatter_reproduces_golden(self, algorithm, backend_name):
        """Wave-routed results == the golden file, down to the per-label
        statistics and the shard/merge accounting."""
        with backend_from_name(backend_name, workers=2) as backend:
            for seed in (0, 1):
                engine, queries = random_instance(seed)
                with ShardedQueryService(
                    engine.graph, num_cells=2, backend=backend, cache_capacity=0
                ) as service:
                    report = service.execute(queries, algorithm=algorithm, workers=3)
                    assert (
                        _golden_view(service, report)
                        == GOLDEN["sharded"][f"{algorithm}/seed-{seed}"]
                    ), f"seed={seed}"

    def test_per_attempt_and_default_scatter_are_identical(self, service_backend):
        """``wave_size=1`` (one submission per attempt) vs the default:
        same report, same shard/merge accounting."""
        engine, queries = random_instance(0)
        waved = ShardedQueryService(
            engine.graph, num_cells=2, backend=service_backend, cache_capacity=0
        )
        per_attempt = ShardedQueryService(
            engine.graph,
            num_cells=2,
            backend=service_backend,
            cache_capacity=0,
            wave_size=1,
        )
        try:
            waved_report = waved.execute(queries, workers=3)
            per_attempt_report = per_attempt.execute(queries, workers=3)
            assert _report_view(waved_report) == _report_view(per_attempt_report)
            assert _snapshot_view(waved) == _snapshot_view(per_attempt)
        finally:
            waved.close()
            per_attempt.close()

    def test_single_cell_waves_match_flat_engine(self, service_backend):
        """``num_cells=1``: the waved scatter still answers exactly like
        the flat engine (every attempt is cell-local, one group)."""
        engine, queries = random_instance(4)
        service = ShardedQueryService(
            engine.graph, num_cells=1, backend=service_backend, cache_capacity=0
        )
        try:
            report = service.execute(queries, workers=3)
            for item in report.items:
                assert item.error is None
                assert fingerprint(item.result) == fingerprint(
                    engine.run(item.query)
                )
        finally:
            service.close()


class TestWaveObservability:
    def test_wave_counters_fill_and_reset(self, service_backend):
        engine, queries = random_instance(2)
        service = ShardedQueryService(
            engine.graph, num_cells=2, backend=service_backend, cache_capacity=0
        )
        try:
            service.execute(queries, workers=3)
            waves = service.stats.snapshot().waves
            # 8 queries over 2 cells + crosscell: at least the crosscell
            # group (every unit has a cross attempt) forms a real wave.
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

    def test_wave_size_one_forms_no_waves(self, service_backend):
        engine, queries = random_instance(2)
        service = ShardedQueryService(
            engine.graph,
            num_cells=2,
            backend=service_backend,
            cache_capacity=0,
            wave_size=1,
        )
        try:
            service.execute(queries, workers=3)
            snapshot = service.stats.snapshot()
            assert snapshot.waves["formed"] == 0
            # Every attempt went out as a wave of one.
            assert snapshot.waves["solo_fallbacks"] == sum(snapshot.shard_tasks.values())
        finally:
            service.close()


class TestAdaptiveWaveSizing:
    def test_low_rate_keeps_base_size(self):
        controller = WaveSizeController()
        controller.observe(1.0)
        assert controller.wave_size == DEFAULT_WAVE_SIZE

    def test_high_rate_on_dense_graph_grows_within_cap(self):
        class DenseGraph:
            num_nodes = 100
            num_edges = 1600  # mean out-degree 16 = 4x the reference

        controller = WaveSizeController()
        controller.retarget(DenseGraph())
        controller.observe(500.0)
        assert controller.wave_size == min(MAX_WAVE_SIZE, DEFAULT_WAVE_SIZE * 4)
        # The rate dropping back shrinks the wave again.
        controller.observe(0.0)
        assert controller.wave_size == DEFAULT_WAVE_SIZE

    def test_sparse_graph_never_shrinks_below_base(self):
        class SparseGraph:
            num_nodes = 100
            num_edges = 100  # mean out-degree 1

        controller = WaveSizeController()
        controller.retarget(SparseGraph())
        controller.observe(1e9)
        assert controller.wave_size == DEFAULT_WAVE_SIZE

    def test_fixed_size_ignores_the_signals(self):
        class DenseGraph:
            num_nodes = 10
            num_edges = 1000

        controller = WaveSizeController(8, fixed=True)
        controller.retarget(DenseGraph())
        controller.observe(1e9)
        assert controller.wave_size == 8
        assert controller.describe()["mode"] == "fixed"

    def test_service_tune_waves_round_trip(self, service_backend):
        engine, _queries = random_instance(0)
        service = ShardedQueryService(
            engine.graph, num_cells=2, backend=service_backend
        )
        try:
            assert service.wave_size == DEFAULT_WAVE_SIZE
            size = service.tune_waves(1000.0)
            assert size == service.wave_size >= DEFAULT_WAVE_SIZE
            policy = service.wave_policy()
            assert policy["mode"] == "adaptive"
            assert policy["arrival_qps"] == 1000.0
            assert policy["wave_size"] == size
        finally:
            service.close()


class TestWaveChaos:
    def test_kill_worker_mid_shard_wave_degraded_or_identical(self):
        """SIGKILL under a shard wave: the dead-worker retry (and, past
        it, the member-wise resubmission tier) must deliver every slot an
        answer that is fingerprint-identical or flagged degraded."""
        engine, queries = random_instance(3)
        baseline = [fingerprint(engine.run(q)) for q in queries]
        backend = ProcessBackend(workers=2)
        try:
            service = ShardedQueryService(
                engine.graph, num_cells=2, backend=backend, cache_capacity=0
            )
            plan = FaultPlan([FaultRule(kind="kill_worker", times=1)])
            with injected(plan):
                report = service.execute(queries, workers=3)
            assert plan.fired() == {0: 1}
            for item, expected in zip(report.items, baseline):
                assert item.error is None
                if item.result.degraded:
                    assert item.result.feasible
                else:
                    assert fingerprint(item.result) == expected
        finally:
            backend.close()
