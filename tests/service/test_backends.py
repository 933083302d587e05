"""Execution-backend contract tests.

The backend is an implementation detail: the same query batch must come
back **byte-identical** from ``SerialBackend`` and ``ProcessBackend``
— through the flat ``QueryService`` and the
``ShardedQueryService`` alike — and one poisoned slot must never sink
its batch, whichever backend executed it.
"""

from __future__ import annotations

import pytest

from repro.core.query import KORQuery
from repro.exceptions import QueryError
from repro.service import (
    EngineHandle,
    ProcessBackend,
    QueryService,
    SerialBackend,
    ShardedQueryService,
    WaveTask,
    backend_from_name,
)

from tests.ops import recost
from tests.service.test_concurrency import result_bytes
from tests.service.test_differential import fingerprint, random_instance

BACKEND_FACTORIES = (
    ("serial", lambda: SerialBackend()),
    ("process", lambda: ProcessBackend(workers=2)),
)


def wave_of_one(shard: str, query) -> WaveTask:
    """One query as the unit of work the backends speak."""
    return WaveTask.build(shard, [query], "bucketbound")


def run_waves_of_one(backend, waves) -> list:
    """Submit every wave of one, then gather the members in order."""
    futures = [backend.submit_wave(wave) for wave in waves]
    return [future.result()[0] for future in futures]


def run_on_every_backend(run):
    """Map a callback over fresh instances of both backends."""
    outputs = {}
    for name, factory in BACKEND_FACTORIES:
        backend = factory()
        try:
            outputs[name] = run(backend)
        finally:
            backend.close()
    return outputs


class TestBackendEquivalence:
    @pytest.mark.parametrize("algorithm", ("bucketbound", "greedy2"))
    @pytest.mark.parametrize("seed", (0, 2))
    def test_flat_service_byte_identical_across_backends(self, seed, algorithm):
        engine, queries = random_instance(seed)

        def run(backend):
            service = QueryService(engine, cache_capacity=256, backend=backend)
            return result_bytes(service.run_batch(queries, algorithm=algorithm))

        outputs = run_on_every_backend(run)
        assert outputs["serial"] == outputs["process"]

    @pytest.mark.parametrize("num_cells", (1, 2))
    def test_sharded_service_byte_identical_across_backends(self, num_cells):
        engine, queries = random_instance(1)
        cells = min(num_cells, engine.graph.num_nodes)

        def run(backend):
            service = ShardedQueryService(engine.graph, num_cells=cells, seed=4, backend=backend)
            return result_bytes(service.run_batch(queries, algorithm="osscaling"))

        outputs = run_on_every_backend(run)
        assert outputs["serial"] == outputs["process"]

    def test_uncached_batches_stay_identical(self):
        """cache_capacity=0 forces every backend down the compute path."""
        engine, queries = random_instance(6)

        def run(backend):
            service = QueryService(engine, cache_capacity=0, backend=backend)
            return result_bytes(service.run_batch(queries, algorithm="bucketbound"))

        outputs = run_on_every_backend(run)
        assert outputs["serial"] == outputs["process"]


class TestFailureInjection:
    def poisoned_batch(self, engine, queries):
        bad = KORQuery(engine.graph.num_nodes + 7, 0, (), 4.0)  # out of range
        return [queries[0], bad, queries[1]], 1

    @pytest.mark.parametrize("name", [name for name, _ in BACKEND_FACTORIES])
    def test_one_poisoned_slot_never_sinks_the_batch_flat(self, name):
        engine, queries = random_instance(2)
        backend = dict(BACKEND_FACTORIES)[name]()
        try:
            service = QueryService(engine, cache_capacity=256, backend=backend)
            batch, bad_slot = self.poisoned_batch(engine, queries)
            report = service.execute(batch, algorithm="bucketbound")
            assert set(report.errors) == {bad_slot}
            assert isinstance(report.errors[bad_slot], QueryError)
            for item in report.items:
                if item.index != bad_slot:
                    assert item.ok
            # Nothing about the poisoned slot entered the cache.
            assert len(service.cache) == len(batch) - 1
        finally:
            backend.close()

    @pytest.mark.parametrize("name", [name for name, _ in BACKEND_FACTORIES])
    def test_one_poisoned_slot_never_sinks_the_batch_sharded(self, name):
        engine, queries = random_instance(2)
        backend = dict(BACKEND_FACTORIES)[name]()
        try:
            service = ShardedQueryService(
                engine.graph,
                num_cells=min(2, engine.graph.num_nodes),
                backend=backend,
            )
            batch, bad_slot = self.poisoned_batch(engine, queries)
            report = service.execute(batch, algorithm="bucketbound")
            assert set(report.errors) == {bad_slot}
            assert isinstance(report.errors[bad_slot], QueryError)
            for item in report.items:
                if item.index != bad_slot:
                    assert item.ok
            snapshot = service.snapshot()
            assert snapshot.errors == 1
            assert sum(snapshot.shard_errors.values()) == 1
        finally:
            backend.close()


class TestTraceRule:
    """One rule on both names and every cell count: ``trace`` is accepted
    where the sink is shared memory — an in-process backend — and refused
    out of process (a pickled copy of the sink would come back empty).
    Every query is one search on ``service.engine``, in global ids."""

    @staticmethod
    def traced(service, queries):
        from repro.core.results import SearchTrace

        trace = SearchTrace()
        service.run_batch(queries[:1], algorithm="osscaling", trace=trace)
        return trace

    @pytest.mark.parametrize("name", [name for name, _ in BACKEND_FACTORIES])
    def test_trace_rule_on_query_service(self, name):
        engine, queries = random_instance(0)
        with dict(BACKEND_FACTORIES)[name]() as backend:
            service = QueryService(engine, cache_capacity=0, backend=backend)
            if backend.in_process:
                assert self.traced(service, queries).events
            else:
                with pytest.raises(QueryError, match="cross the process boundary"):
                    self.traced(service, queries)

    @pytest.mark.parametrize("num_cells", (1, 2))
    @pytest.mark.parametrize("name", [name for name, _ in BACKEND_FACTORIES])
    def test_trace_rule_on_sharded_query_service(self, name, num_cells):
        engine, queries = random_instance(0)
        with dict(BACKEND_FACTORIES)[name]() as backend:
            service = ShardedQueryService(engine.graph, num_cells=num_cells, backend=backend)
            if backend.in_process:
                events = self.traced(service, queries).events
                assert events
                if num_cells == 1:
                    flat = QueryService(engine, cache_capacity=0, backend=backend)
                    assert events == self.traced(flat, queries).events  # as on the flat name
            else:
                with pytest.raises(QueryError, match="cross the process boundary"):
                    self.traced(service, queries)

    @pytest.mark.parametrize("algorithm", ("bucketbound", "osscaling"))
    def test_two_cell_submit_traces_like_its_engine(self, algorithm):
        """A traced query on a two-cell service is its engine's traced
        run: the same events, in global ids, and the same result."""
        from repro.core.results import SearchTrace

        engine, queries = random_instance(0)
        with ShardedQueryService(engine.graph, num_cells=2, cache_capacity=0) as service:
            traced = 0
            for query in queries:
                served, direct = SearchTrace(), SearchTrace()
                result = service.submit(query, algorithm=algorithm, trace=served)
                expected = service.engine.run(query, algorithm=algorithm, trace=direct)
                assert served.events == direct.events
                assert fingerprint(result) == fingerprint(expected)
                traced += len(served.events)
            assert traced > 0


class TestRegistryHygiene:
    def test_an_update_keeps_one_handle_per_key(self):
        engine, queries = random_instance(0)
        backend = SerialBackend()
        service = QueryService(engine, backend=backend)
        keys = backend.shard_keys
        assert len(keys) == 1
        v, objective, _budget = engine.graph.out_edges(0)[0]
        for factor in (2.0, 1.0):
            retired = service.engine
            service.apply_ops([recost(0, v, objective=objective * factor)])
            assert service.engine is not retired
            # The repaired engine took the retired handle's key: one handle.
            assert backend.shard_keys == keys
        assert service.run_batch(queries[:2], algorithm="bucketbound")

    def test_sharded_close_unregisters_from_shared_backend(self):
        """Retired services must not pin their engines in a shared backend."""
        engine, queries = random_instance(0)
        backend = SerialBackend()
        first = ShardedQueryService(engine.graph, num_cells=2, backend=backend)
        assert len(backend.shard_keys) == 1
        first.close()
        assert backend.shard_keys == ()
        # The shared backend is still usable by a successor service.
        second = ShardedQueryService(engine.graph, num_cells=2, backend=backend)
        assert second.run_batch(queries[:2], algorithm="bucketbound")
        second.close()

    def test_unregister_unknown_key_is_a_noop(self):
        backend = SerialBackend()
        backend.unregister("never-registered")
        assert backend.shard_keys == ()

    def test_flat_service_counts_its_one_shard(self):
        """The flat service is one cell: every computation is one task on
        its one registered handle, merged as a cell win."""
        engine, queries = random_instance(0)
        service = QueryService(engine, cache_capacity=0)
        service.run_batch(queries, algorithm="bucketbound")
        snapshot = service.snapshot()
        unique = len(set(queries))
        assert snapshot.shard_tasks == {service.backend.shard_keys[0]: unique}
        assert snapshot.shard_errors == {}
        assert sum(snapshot.merge_wins.values()) == unique


class TestProcessBackendMechanics:
    def test_unknown_shard_fails_only_its_own_task(self):
        engine, queries = random_instance(0)
        backend = ProcessBackend(workers=1)
        try:
            handle = backend.register_engine(engine)
            good = wave_of_one(handle.key, queries[0])
            ghost = wave_of_one("no-such-shard", queries[1])
            outcomes = run_waves_of_one(backend, [good, ghost, good])
            assert outcomes[0].ok and outcomes[2].ok
            assert not outcomes[1].ok
            assert isinstance(outcomes[1].error, QueryError)
        finally:
            backend.close()

    def test_registering_after_a_run_retires_and_rebuilds_the_pool(self):
        engine_a, queries_a = random_instance(0)
        engine_b, queries_b = random_instance(7)
        backend = ProcessBackend(workers=1)
        try:
            handle_a = backend.register_engine(engine_a)
            first = run_waves_of_one(backend, [wave_of_one(handle_a.key, queries_a[0])])
            assert first[0].ok
            handle_b = backend.register_engine(engine_b)
            second = run_waves_of_one(
                backend,
                [
                    wave_of_one(handle_a.key, queries_a[0]),
                    wave_of_one(handle_b.key, queries_b[0]),
                ],
            )
            assert second[0].ok and second[1].ok
        finally:
            backend.close()

    def test_close_is_idempotent_and_warm_up_spins_the_pool(self):
        engine, queries = random_instance(0)
        backend = ProcessBackend(workers=2)
        handle = backend.register_engine(engine)
        backend.warm_up()
        outcomes = run_waves_of_one(backend, [wave_of_one(handle.key, queries[0])])
        assert outcomes[0].ok
        backend.close()
        backend.close()

    def test_engine_handle_round_trip_serves_queries(self):
        import pickle

        engine, queries = random_instance(3)
        handle = EngineHandle(engine, key="round-trip")
        clone = pickle.loads(pickle.dumps(handle))
        assert clone.key == "round-trip"
        expected = engine.run(queries[0], algorithm="bucketbound")
        got = clone.engine().run(queries[0], algorithm="bucketbound")
        assert got.objective_score == expected.objective_score
        assert got.budget_score == expected.budget_score


def test_backend_from_name_matrix():
    for name, expected in (("serial", SerialBackend), ("process", ProcessBackend)):
        backend = backend_from_name(name)
        assert isinstance(backend, expected)
        backend.close()
    with pytest.raises(QueryError):
        backend_from_name("gpu")


def test_the_thread_backend_is_retired():
    """The thread pool was slower than inline waves on every batch
    measured (the searches hold the GIL); its name is refused, pointing
    at the two that remain."""
    with pytest.raises(QueryError, match="serial or process"):
        backend_from_name("thread")
    import repro
    import repro.service

    assert "ThreadBackend" not in repro.__all__
    assert "ThreadBackend" not in repro.service.__all__
    assert not hasattr(repro.service, "ThreadBackend")
