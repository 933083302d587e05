"""The documented top-level API surface must work as advertised."""

import repro


class TestTopLevelExports:
    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None

    def test_readme_quickstart_flow(self):
        graph = repro.figure_1_graph()
        engine = repro.KOREngine(graph)
        result = engine.query(
            source=0, target=7, keywords=["t1", "t2", "t3"],
            budget_limit=8.0, algorithm="osscaling",
        )
        assert "v0 -> v3 -> v4 -> v7" in result.route.describe(graph)

    def test_version_is_pep440ish(self):
        parts = repro.__version__.split(".")
        assert len(parts) >= 2
        assert all(part.isdigit() for part in parts[:2])

    def test_exception_hierarchy(self):
        for exc in (
            repro.GraphError,
            repro.QueryError,
            repro.PrepError,
            repro.DatasetError,
        ):
            assert issubclass(exc, repro.ReproError)

    def test_functional_entry_points_share_results(self, fig1_engine):
        """Direct function calls match the engine facade."""
        query = repro.KORQuery(0, 7, ("t1", "t2"), 10.0)
        direct = repro.os_scaling(fig1_engine.graph, fig1_engine.tables, fig1_engine.index, query)
        via_engine = fig1_engine.run(query, algorithm="osscaling")
        assert direct.route.nodes == via_engine.route.nodes

    def test_docstrings_on_public_api(self):
        undocumented = [
            name
            for name in repro.__all__
            if name != "__version__" and not (getattr(repro, name).__doc__ or "").strip()
        ]
        assert undocumented == []


class TestOneUpdateVerb:
    """Every change to a served world is ``apply_ops(ops)``: the per-op
    verbs, the module-level batch function and the engine swap are gone."""

    RETIRED = ("update_edge_cost", "close_node", "open_node", "update_keywords")

    def test_the_per_op_verbs_are_retired(self):
        from repro.graph.mutation import GraphMutator
        from repro.service import QueryService, ShardedQueryService
        from repro.service.base import RoutedService
        from repro.world import MutableWorld

        for owner in (GraphMutator, MutableWorld, RoutedService, QueryService, ShardedQueryService):
            assert callable(owner.apply_ops)
            for name in self.RETIRED:
                assert not hasattr(owner, name), f"{owner.__name__}.{name}"
        assert not hasattr(GraphMutator, "apply_op")

    def test_the_batch_function_and_the_engine_swap_are_retired(self):
        import repro.graph.mutation
        from repro.service import QueryService

        assert not hasattr(repro.graph.mutation, "resolve_ops")
        assert not hasattr(QueryService, "replace_engine")


class TestOneSearchPerQuery:
    """Every service serves one engine, so every query is one search: the
    per-cell engines, the cross-cell twin's accessor and the fallback
    flag are gone."""

    def test_the_cell_attempt_names_are_retired(self):
        import repro.service
        import repro.service.base
        import repro.service.sharding
        from repro.service import ShardedQueryService

        for module in (repro, repro.service, repro.service.base, repro.service.sharding):
            assert not hasattr(module, "Shard"), module.__name__
        assert "Shard" not in repro.service.__all__
        for name in ("shards", "border_engine"):
            assert not hasattr(ShardedQueryService, name), name

    def test_the_second_engine_class_is_retired(self):
        import importlib.util

        import repro.service
        from repro.service import ShardedQueryService

        for module in (repro, repro.service):
            assert not hasattr(module, "BorderEngine"), module.__name__
        assert "BorderEngine" not in repro.service.__all__
        assert importlib.util.find_spec("repro.service.crosscell") is None
        assert not hasattr(ShardedQueryService, "from_engine")

    def test_results_carry_no_degraded_flag(self):
        from repro.core.results import KORResult

        assert "degraded" not in KORResult.__dataclass_fields__

    def test_both_tiers_register_one_handle(self):
        from repro.service import QueryService, ShardedQueryService

        graph = repro.figure_1_graph()
        for service in (
            QueryService(repro.KOREngine(graph)),
            ShardedQueryService(graph, num_cells=2),
        ):
            with service:
                assert len(service.backend.shard_keys) == 1
                assert isinstance(service.engine, repro.KOREngine)
