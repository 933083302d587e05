"""Tests for the shared search machinery (repro.core.searchbase)."""

import numpy as np
import pytest

from repro.core.label import VIA_JUMP, Label
from repro.core.query import KORQuery
from repro.core.scaling import ScalingContext
from repro.core.searchbase import SearchContext


def make_context(engine, query, epsilon=0.5, threshold=0.01):
    scaling = ScalingContext.for_query(engine.graph, query.budget_limit, epsilon)
    return SearchContext(
        engine.graph, engine.tables, engine.index, query, scaling,
        infrequent_threshold=threshold,
    )


class TestColumns:
    def test_completion_columns_match_tables(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t1",), 10.0))
        np.testing.assert_array_equal(ctx.os_tau_t, fig1_engine.tables.os_tau[:, 7])
        np.testing.assert_array_equal(ctx.bs_sigma_t, fig1_engine.tables.bs_sigma[:, 7])
        assert ctx.os_tau_t_list == ctx.os_tau_t.tolist()

    def test_scaled_out_matches_graph_edges(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t1",), 10.0))
        out = ctx.scaled_out(0)
        assert [(v, o, b) for v, o, b, _s in out] == list(fig1_engine.graph.out_edges(0))
        for _v, objective, _b, scaled in out:
            assert scaled == ctx.scaling.scale(objective)

    def test_scaled_out_is_cached(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t1",), 10.0))
        assert ctx.scaled_out(3) is ctx.scaled_out(3)


class TestImpossibilityScreens:
    def test_all_clear(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t1",), 10.0))
        assert ctx.impossibility_reason() is None

    def test_missing_vocabulary(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("zzz",), 10.0))
        assert "not present" in ctx.impossibility_reason()

    def test_unreachable(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(7, 0, ("t1",), 10.0))
        assert "unreachable" in ctx.impossibility_reason()

    def test_budget_screen(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t1",), 2.0))
        assert "exceeds the limit" in ctx.impossibility_reason()


class TestJumpCandidate:
    """Optimisation Strategy 1 (Section 3.2)."""

    def test_jump_targets_cheapest_uncovered_keyword_node(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t4",), 20.0))
        root = ctx.root_label()
        jump = ctx.jump_candidate(root)
        assert jump is not None
        vj, seg_os, seg_bs = jump
        assert vj == 4  # the only t4 node
        assert seg_os == float(fig1_engine.tables.os_sigma[0, 4])
        assert seg_bs == float(fig1_engine.tables.bs_sigma[0, 4])

    def test_no_jump_when_everything_covered(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t3",), 20.0))
        root = ctx.root_label()  # v0 carries t3 itself
        assert root.mask == ctx.binding.full_mask
        assert ctx.jump_candidate(root) is None

    def test_no_jump_when_budget_cannot_fit_detour(self, fig1_engine):
        # Reaching t5 (v1) and then v7 costs at least 7 > Delta = 6.
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t5",), 6.0))
        assert ctx.jump_candidate(ctx.root_label()) is None

    def test_jump_picks_minimum_budget_detour(self, fig1_engine):
        # Both v2, v5 and v7 carry t2; from v0 the cheapest sigma is to v2.
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t2",), 20.0))
        vj, _os, _bs = ctx.jump_candidate(ctx.root_label())
        sigma_row = fig1_engine.tables.bs_sigma_row(0)
        candidates = {2, 5, 7}
        assert vj in candidates
        assert sigma_row[vj] == min(sigma_row[v] for v in candidates)


class TestStrategy2:
    def test_inactive_without_rare_keyword(self, fig1_engine):
        # Threshold 0.01 on 8 nodes -> nothing counts as infrequent.
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t2",), 10.0), threshold=0.01)
        assert not ctx.strategy2_active

    def test_active_with_generous_threshold(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t4", "t2"), 10.0), threshold=0.5)
        assert ctx.strategy2_active

    def test_rejects_label_that_cannot_detour(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t5", "t2"), 7.5), threshold=0.5)
        assert ctx.strategy2_active
        # A label at v0 with zero scores: cheapest detour via v1 (t5) costs
        # BS(sigma_{0,1}) + BS(sigma_{1,7}) = 1 + 6 = 7 <= 7.5, so survive;
        # but with budget already spent it must die.
        assert not ctx.strategy2_rejects(0, 0, 0.0, 0.0, float("inf"))
        assert ctx.strategy2_rejects(0, 0, 0.0, 1.0, float("inf"))

    def test_covered_rare_bit_never_rejected(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t5", "t2"), 7.5), threshold=0.5)
        rare_bit_mask = 0b01  # t5 is bit 0
        assert not ctx.strategy2_rejects(0, rare_bit_mask, 0.0, 99.0, float("inf"))

    def test_objective_screen_uses_upper_bound(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t5", "t2"), 20.0), threshold=0.5)
        # Detour through v1 to v7 has objective >= OS(tau_{0,1}) + OS(tau_{1,7}).
        floor = float(
            fig1_engine.tables.os_tau[0, 1] + fig1_engine.tables.os_tau[1, 7]
        )
        assert ctx.strategy2_rejects(0, 0, 0.0, 0.0, upper=floor - 0.5)
        assert not ctx.strategy2_rejects(0, 0, 0.0, 0.0, upper=floor + 0.5)


class TestMaterialize:
    def test_edge_chain(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t1",), 10.0))
        root = ctx.root_label()
        child = Label(3, 1, 40.0, 2.0, 2.0, parent=root)
        route = ctx.materialize(child)
        # Chain v0 -> v3, then tau_{3,7} = <v3, v4, v7>.
        assert route.nodes == (0, 3, 4, 7)

    def test_jump_label_expands_sigma_path(self, fig1_engine):
        ctx = make_context(fig1_engine, KORQuery(0, 7, ("t2",), 20.0))
        root = ctx.root_label()
        seg_os = float(fig1_engine.tables.os_sigma[0, 5])
        seg_bs = float(fig1_engine.tables.bs_sigma[0, 5])
        jump = Label(5, 1, 0.0, seg_os, seg_bs, parent=root, via=VIA_JUMP)
        route = ctx.materialize(jump)
        sigma = fig1_engine.tables.sigma_path(0, 5)
        tau = fig1_engine.tables.tau_path(5, 7)
        assert list(route.nodes) == sigma + tau[1:]
        assert route.budget_score == pytest.approx(
            seg_bs + fig1_engine.tables.bs_tau[5, 7]
        )


class TestCrossCellReads:
    """Over partitioned tables the two strategies read what the full
    rows hold, and the search loop never assembles a full row or a
    scalar pair to get it."""

    @pytest.fixture(scope="class")
    def border_engine(self):
        from repro.datasets import RoadConfig, build_road_graph
        from repro.prep.partition import PartitionedCostTables
        from repro.service import BorderEngine

        graph = build_road_graph(RoadConfig(num_nodes=150, seed=7))
        tables = PartitionedCostTables.from_graph(graph, num_cells=3, predecessors=True)
        return BorderEngine(graph, tables=tables)

    @pytest.fixture(scope="class")
    def queries(self, border_engine):
        from repro.datasets import QuerySetConfig, generate_query_set

        config = QuerySetConfig(num_queries=6, num_keywords=3, budget_limit=8.0, seed=5)
        return generate_query_set(
            border_engine.graph, border_engine.index, config, tables=border_engine.tables
        )

    @staticmethod
    def jump_from_full_rows(ctx, label):
        """Strategy 1 as it read the tables before the restricted read."""
        missing = ctx.binding.full_mask & ~label.mask
        lists = [
            postings
            for bit, postings in enumerate(ctx.binding.nodes_with_bit)
            if missing & (1 << bit) and len(postings)
        ]
        if not lists:
            return None
        nodes = np.unique(np.concatenate(lists))
        bs_row = ctx.tables.bs_sigma_row(label.node)
        feasible = (label.bs + bs_row[nodes] + ctx.bs_sigma_t[nodes]) <= ctx.delta
        if not feasible.any():
            return None
        candidates = nodes[feasible]
        vj = int(candidates[int(np.argmin(bs_row[candidates]))])
        return vj, float(ctx.tables.os_sigma_row(label.node)[vj]), float(bs_row[vj])

    def test_jump_candidate_equals_full_row_computation(self, border_engine, queries):
        jumps = 0
        for query in queries:
            ctx = make_context(border_engine, query)
            for node in range(0, border_engine.graph.num_nodes, 7):
                for bs in (0.0, 1.0, 4.0):
                    label = Label(node, ctx.binding.node_mask(node), 0.0, 0.0, bs)
                    got = ctx.jump_candidate(label)
                    assert got == self.jump_from_full_rows(ctx, label)
                    jumps += got is not None
        assert jumps > 50  # the comparison is not vacuous

    def test_strategy2_joint_test_equals_full_row_computation(self, border_engine, queries):
        exercised = 0
        for query in queries:
            ctx = make_context(border_engine, query, threshold=0.2)
            assert ctx.strategy2_active
            rare = ctx.binding.nodes_with_bit[ctx._rare_bit]
            for node in range(0, border_engine.graph.num_nodes, 11):
                os_via = ctx.tables.os_tau_row(node)[rare] + ctx.os_tau_t[rare]
                bs_via = ctx.tables.bs_sigma_row(node)[rare] + ctx.bs_sigma_t[rare]
                # Nudged off the exact values: the scalar screens in front
                # of the joint test come from columns, an ulp away from rows.
                for upper in np.quantile(os_via, (0.0, 0.5, 1.0)) * (1 + 1e-9):
                    keeps = ((os_via <= upper) & (bs_via <= ctx.delta)).any()
                    assert ctx.strategy2_rejects(node, 0, 0.0, 0.0, upper) == (not keeps)
                    exercised += 1
        assert exercised > 50

    @pytest.mark.parametrize("algorithm", ("bucketbound", "osscaling"))
    def test_search_loop_assembles_no_full_row_and_no_pair(
        self, border_engine, queries, algorithm, monkeypatch
    ):
        from repro.core.bucketbound import _BucketBoundSearch
        from repro.core.osscaling import _OSScalingSearch
        from repro.prep.partition import PartitionedCostTables

        calls = {"_assemble_pair": 0, "_rows": 0}
        for name in calls:
            original = getattr(PartitionedCostTables, name)

            def counting(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(PartitionedCostTables, name, counting)

        search_class = _BucketBoundSearch if algorithm == "bucketbound" else _OSScalingSearch
        popped = found = 0
        for query in queries:
            search = search_class(
                border_engine.graph,
                border_engine.tables,
                border_engine.index,
                query,
                infrequent_threshold=0.2,
            )
            before = dict(calls)
            while (label := search.pop()) is not None:
                search.step(label)
                popped += 1
            assert calls == before, f"{query}: the loop fell back to a full assembly"
            # Materialising the answer is where pairs are still assembled.
            found += search.result().found
        assert popped > 50 and found
        assert calls["_rows"] == 0 and calls["_assemble_pair"] > 0
