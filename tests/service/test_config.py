"""The unified construction API: ``ServiceConfig`` + ``build_service``.

Satellite (a) of the dynamic-world issue: one factory replaces the
constructor-kwarg sprawl across the three tiers.  The contracts under
test — tier selection from the world's type, string-backend resolution
with lifecycle ownership, override validation, and equivalence with the
old constructors (which stay supported).
"""

from __future__ import annotations

import pytest

from repro.core.engine import KOREngine
from repro.exceptions import QueryError
from repro.service import (
    AsyncQueryService,
    ProcessBackend,
    QueryService,
    SerialBackend,
    ServiceConfig,
    ShardedQueryService,
    build_service,
)
from repro.service.batch import DEFAULT_WAVE_SIZE
from repro.world import MutableWorld

from tests.ops import recost
from tests.service.test_differential import fingerprint, random_instance


@pytest.fixture
def graph():
    engine, _queries = random_instance(0)
    return engine.graph


class TestServiceConfig:
    def test_defaults_mirror_the_constructors(self):
        config = ServiceConfig()
        assert config.tier == "auto"
        assert config.backend is None
        assert config.cache_capacity == 1024

    def test_unknown_tier_is_rejected(self):
        with pytest.raises(QueryError, match="unknown service tier"):
            ServiceConfig(tier="galactic")

    def test_bad_worker_count_is_rejected(self):
        with pytest.raises(QueryError, match="workers"):
            ServiceConfig(workers=0)

    def test_with_overrides_rejects_unknown_fields(self, graph):
        config = ServiceConfig()
        assert config.with_overrides(workers=3).workers == 3
        with pytest.raises(QueryError, match="unknown ServiceConfig field"):
            config.with_overrides(wrokers=3)
        # The adaptive micro-batch target is retired, not ignored.
        with pytest.raises(QueryError, match="unknown ServiceConfig field"):
            build_service(graph, adaptive_target_batch=8)


class TestConstructorValidation:
    """Every batching knob is checked where the tier is built, with the
    same message on the constructors and through ``build_service``."""

    @pytest.mark.parametrize(
        "knob, message",
        (
            ({"max_batch": 0}, "max_batch must be >= 1, got 0"),
            ({"window_seconds": -0.1}, "window_seconds must be a finite number >= 0"),
            # /stats reports both and JSON has no NaN or Infinity: these
            # used to make every GET /stats a 500.
            ({"window_seconds": float("nan")}, "window_seconds must be a finite number"),
            ({"window_seconds": float("inf")}, "window_seconds must be a finite number"),
            ({"slo_seconds": float("nan")}, "slo_seconds must be a finite number"),
            ({"slo_seconds": float("inf")}, "slo_seconds must be a finite number"),
        ),
    )
    def test_frontend_knobs_are_checked(self, graph, knob, message):
        with pytest.raises(QueryError, match=message):
            AsyncQueryService(QueryService(KOREngine(graph)), **knob)
        with pytest.raises(QueryError, match=message):
            build_service(graph, tier="async", **knob)

    def test_wave_size_is_the_module_default_read_live(self, graph, monkeypatch):
        with build_service(graph) as service:
            assert service.wave_size == DEFAULT_WAVE_SIZE
            monkeypatch.setattr("repro.service.batch.DEFAULT_WAVE_SIZE", 5)
            assert service.wave_size == 5
        with pytest.raises(QueryError, match="unknown ServiceConfig field"):
            build_service(graph, wave_size=5)


class TestTierSelection:
    def test_bare_graph_defaults_to_flat(self, graph):
        service = build_service(graph)
        assert type(service) is QueryService

    def test_mutable_world_defaults_to_sharded(self, graph):
        world = MutableWorld(graph, num_cells=2)
        service = build_service(world)
        assert type(service) is ShardedQueryService
        assert service.world is world

    def test_num_cells_promotes_a_graph_to_sharded(self, graph):
        service = build_service(graph, num_cells=2)
        assert type(service) is ShardedQueryService

    def test_explicit_flat_wins_over_world(self, graph):
        world = MutableWorld(graph, num_cells=2)
        service = build_service(world, tier="flat")
        assert type(service) is QueryService
        assert service.engine.graph is world.graph

    def test_engine_is_reused_by_the_flat_tier(self, graph):
        engine = KOREngine(graph)
        service = build_service(engine)
        assert service.engine is engine

    def test_async_tier_wraps_the_auto_selected_sync_tier(self, graph):
        front = build_service(graph, tier="async")
        assert type(front) is AsyncQueryService
        assert type(front.service) is QueryService
        front_sharded = build_service(MutableWorld(graph, num_cells=2), tier="async")
        assert type(front_sharded.service) is ShardedQueryService


class TestBackendOwnership:
    def test_default_backend_is_an_owned_serial_backend(self, graph):
        """``backend=None`` runs waves inline on a backend the service
        made, so the service's ``close()`` closes it."""
        service = build_service(graph)
        backend = service.backend
        assert type(backend) is SerialBackend
        closed = []
        backend.close = lambda: closed.append(True)
        assert service.run_batch(random_instance(0)[1][:2], algorithm="bucketbound")
        service.close()
        assert closed == [True]

    def test_string_backend_is_owned_and_closed(self, graph):
        service = build_service(graph, backend="process", workers=1)
        backend = service.backend
        assert isinstance(backend, ProcessBackend)
        service.run_batch(random_instance(0)[1][:1], algorithm="exact")  # start the lane
        assert backend._lanes[0].executor is not None
        service.close()
        # Closing a factory-owned backend shuts its lanes down.
        assert backend._lanes[0].executor is None

    def test_backend_instance_is_shared_and_left_open(self, graph):
        backend = SerialBackend()
        closed = []
        backend.close = lambda: closed.append(True)
        service = build_service(graph, backend=backend)
        assert service.backend is backend
        service.close()
        # A caller-supplied backend is never closed by the service.
        assert closed == []


class TestFactoryEquivalence:
    def test_factory_flat_equals_constructor_flat(self, graph):
        engine, queries = random_instance(0)
        old_style = QueryService(KOREngine(graph), cache_capacity=256)
        new_style = build_service(graph, cache_capacity=256)
        for algorithm in ("bucketbound", "exact"):
            lhs = old_style.run_batch(queries, algorithm=algorithm)
            rhs = new_style.run_batch(queries, algorithm=algorithm)
            assert [fingerprint(r) for r in lhs] == [fingerprint(r) for r in rhs]

    def test_factory_sharded_equals_constructor_sharded(self, graph):
        _engine, queries = random_instance(0)
        old_style = ShardedQueryService(graph, num_cells=2, seed=0)
        new_style = build_service(graph, num_cells=2, seed=0)
        try:
            for algorithm in ("bucketbound", "exact"):
                lhs = old_style.run_batch(queries, algorithm=algorithm)
                rhs = new_style.run_batch(queries, algorithm=algorithm)
                assert [fingerprint(r) for r in lhs] == [fingerprint(r) for r in rhs]
        finally:
            old_style.close()
            new_style.close()

    def test_factory_built_service_supports_mutation(self, graph):
        service = build_service(MutableWorld(graph, num_cells=2))
        try:
            u, v = next((u, v) for u in range(graph.num_nodes) for v, _o, _b in graph.out_edges(u))
            epoch = service.apply_ops([recost(u, v, objective=2.5)])
            assert epoch == service.epoch == 1
        finally:
            service.close()


class TestHarnessContract:
    """What ``benchmarks/e2e`` reads off a built service, pinned.

    ``run.py:129`` and ``e2e_onion.py:239,307`` tell the sharded tier by
    ``hasattr(service, "world")``: a flat service exposing ``world``
    would be checked as sharded (a second engine, answers not compared
    for equality).  ``e2e_onion.py:454`` unpacks the flat tier's one
    backend handle with ``(shard,) = backend.shard_keys``.
    """

    def test_flat_tier_is_one_cell_without_a_world(self, graph, service_backend):
        with build_service(graph, tier="flat", backend=service_backend) as service:
            assert not hasattr(service, "world")
            assert isinstance(service.engine, KOREngine)
            assert len(service.backend.shard_keys) == 1
            (cell,) = service._world.cells  # noqa: SLF001 - the one cell
            assert cell.subgraph is service.engine.graph is graph

    def test_sharded_tier_has_a_world(self, graph, service_backend):
        with build_service(graph, tier="sharded", backend=service_backend) as service:
            assert isinstance(service.world, MutableWorld)

    def test_sharded_tier_serves_the_traced_onions_reads(self, graph, service_backend):
        """``run.py --trace 1`` reads these off the sharded tier: the
        plan share (``e2e_onion.py:440``), the outcome counters
        (``:155``), the update probes (``:577-632``) and the population
        generator (``e2e_workloads.py:97``, ``:258``)."""
        from repro.prep.partition import PartitionedCostTables

        _engine, queries = random_instance(0)
        with build_service(graph, tier="sharded", backend=service_backend) as service:
            plans = {service.plan_of(query) for query in queries}
            assert len(plans) == 1 and all(isinstance(plan, str) for plan in plans)
            assert service.num_shards == service.world.num_cells >= 2
            assert len(service.partition.cell_of) == service.graph.num_nodes
            assert isinstance(service.world.tables, PartitionedCostTables)
            assert service.world.index is not None
            service.run_batch(queries, algorithm="bucketbound")
            merge_wins = service.snapshot().merge_wins
            assert isinstance(merge_wins, dict)
            assert set(merge_wins) <= {"cell", "crosscell", "infeasible", "error"}
            assert sum(merge_wins.values()) == len(set(queries))
            assert isinstance(service.invalidate_cache(), int)
            u, v = next((u, v) for u in range(graph.num_nodes) for v, _o, _b in graph.out_edges(u))
            assert service.apply_ops([recost(u, v, objective=2.5)]) == 1

    def test_flat_tier_warms_its_backend(self, graph):
        """``e2e_workloads.py:134`` warms a process pool before timing."""
        with build_service(graph, tier="flat", backend="process", workers=1) as service:
            service.backend.warm_up()
            assert service.run_batch([random_instance(0)[1][0]])
