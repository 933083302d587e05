"""Tests for the shared search machinery (repro.core.searchbase)."""

import collections
import contextlib

import numpy as np
import pytest

from repro.core import searchbase
from repro.core.engine import KOREngine
from repro.core.label import VIA_JUMP, Label
from repro.core.osscaling import _OSScalingSearch
from repro.core.query import KORQuery
from repro.core.results import SearchTrace
from repro.core.scaling import ScalingContext
from repro.core.searchbase import SCREEN_MIN_DEGREE, SearchContext
from repro.graph.builder import GraphBuilder

from tests.core.test_kernels import STAT_FIELDS


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


@contextlib.contextmanager
def screen_from(degree):
    """Run the body with :data:`SCREEN_MIN_DEGREE` set to *degree*."""
    saved = searchbase.SCREEN_MIN_DEGREE
    searchbase.SCREEN_MIN_DEGREE = degree
    try:
        yield
    finally:
        searchbase.SCREEN_MIN_DEGREE = saved


#: Above every out-degree: the per-edge loop, the screen's reference.
NEVER = 10**9

def counters(stats):
    return {name: getattr(stats, name) for name in STAT_FIELDS}


def fingerprint(result):
    """Everything a KOR / KkR answer pins except wall time."""
    routes = result.routes if hasattr(result, "routes") else [result.route]
    return (
        [
            None if route is None else (route.nodes, route.objective_score, route.budget_score)
            for route in routes
        ],
        getattr(result, "failure_reason", None),
        counters(result.stats),
    )


def two_hub_graph(fan=SCREEN_MIN_DEGREE + 6):
    """``s -> relay -> {leaves} -> t`` and ``s -> {leaves}`` directly.

    Every leaf carries the keyword.  From ``s`` the cheapest leaf comes
    first in adjacency order, the other leaves cost more; three leaves
    complete only over a budget-busting edge and two cannot reach ``t``
    at all (``inf`` in both completion columns).  ``relay`` (no keyword)
    is the last of ``s``'s out-edges and fans out to every leaf again.
    """
    builder = GraphBuilder()
    s = builder.add_node(name="s")
    t = builder.add_node(name="t")
    relay = builder.add_node(name="relay")
    leaves = [builder.add_node(["kw"], name=f"leaf{i}") for i in range(fan)]
    for i, leaf in enumerate(leaves):
        builder.add_edge(s, leaf, 1.0 + 0.125 * i, 1.0)
        builder.add_edge(relay, leaf, 0.25 + 0.125 * (fan - i), 1.0)
        if i in (3, 4, 5):
            builder.add_edge(leaf, t, 1.0, 100.0)
        elif i not in (6, 7):
            builder.add_edge(leaf, t, 1.0, 1.0)
    builder.add_edge(s, relay, 0.25, 1.0)
    return builder.build(), s, t, relay


class TestExpand:
    """The masked out-edge screen against the per-edge loop it replaces."""

    @pytest.fixture(scope="class")
    def hubs(self):
        graph, s, t, relay = two_hub_graph()
        return KOREngine(graph), KORQuery(s, t, ("kw",), 10.0), relay

    @staticmethod
    def search(engine, query, **params):
        return _OSScalingSearch(
            engine.graph, engine.tables, engine.index, query, use_strategy1=False, **params
        )

    @staticmethod
    def drain(search):
        while (label := search.pop()) is not None:
            search.step(label)
        return search.result()

    def test_consider_and_scale_see_survivors_only(self, hubs, monkeypatch):
        engine, query, _relay = hubs
        graph = engine.graph
        search = self.search(engine, query)
        ctx = search.ctx

        scaled = []
        original_scale = ScalingContext.scale
        monkeypatch.setattr(
            ScalingContext, "scale", lambda self, o: scaled.append(o) or original_scale(self, o)
        )
        considered = []
        original_consider = search.consider
        search.consider = lambda *args: considered.append(args) or original_consider(*args)

        expected = []
        original_expand = ctx.expand

        def expand(label, bound, stats, consider, per_edge=False):
            assert not per_edge
            assert graph.out_degree(label.node) >= SCREEN_MIN_DEGREE
            expected.extend(
                (label, head, objective, budget)
                for head, objective, budget in graph.out_edges(label.node)
                if (label.bs + budget) + ctx.bs_sigma_t_list[head] <= ctx.delta
                and (label.os + objective) + ctx.os_tau_t_list[head] < bound
            )
            original_expand(label, bound, stats, consider)

        ctx.expand = expand
        result = self.drain(search)

        assert result.feasible and search.stats.loops == 2  # s, then relay
        assert [args[:4] for args in considered] == expected
        assert 0 < len(considered) < search.stats.labels_created
        assert all(args[4] == original_scale(ctx.scaling, args[2]) for args in considered)
        assert scaled == [args[2] for args in considered]

    def test_bound_tightened_inside_a_block_kills_later_survivors(self, hubs):
        engine, query, _relay = hubs
        with screen_from(NEVER):
            reference = self.drain(self.search(engine, query)).stats

        search = self.search(engine, query)
        in_consider = {"bound": 0, "budget": 0}
        original_consider = search.consider

        def consider(*args):
            before = search.stats.labels_pruned_bound, search.stats.labels_pruned_budget
            original_consider(*args)
            in_consider["bound"] += search.stats.labels_pruned_bound - before[0]
            in_consider["budget"] += search.stats.labels_pruned_budget - before[1]

        search.consider = consider
        stats = self.drain(search).stats

        # From s the snapshot bound is inf: every reachable, affordable leaf
        # survives the screen, the first one becomes the incumbent and
        # ``consider`` then bound-prunes the rest of the block itself; the
        # relay's block meets a finite snapshot and dies in the screen.
        assert stats.bound_updates >= 1
        assert in_consider["bound"] > 0
        assert stats.labels_pruned_bound - in_consider["bound"] > 0
        assert in_consider["budget"] == 0 < stats.labels_pruned_budget
        assert counters(stats) == counters(reference)

    def test_budget_compare_keeps_scalar_association_and_direction(self):
        """``(parent.bs + seg_bs) + BS(sigma)``, pruned only when ``> Delta``."""
        delta = 0.6
        # Lands on the limit (kept) under the scalar path's association
        # and one ulp over it (pruned) under the other one.
        assert (0.3 + 0.2) + 0.1 == delta < 0.3 + (0.2 + 0.1)
        builder = GraphBuilder()
        s, t, relay = (builder.add_node(name=name) for name in ("s", "t", "relay"))
        builder.add_edge(s, relay, 1.0, 0.3)
        # Keeps BS(sigma_{relay,t}) at 0.1, so the label at the relay exists.
        builder.add_edge(relay, t, 50.0, 0.1)
        for i in range(SCREEN_MIN_DEGREE):
            leaf = builder.add_node(["kw"])
            builder.add_edge(relay, leaf, 1.0 + i, 0.2 if i == 0 else 0.25)
            builder.add_edge(leaf, t, 1.0, 0.1)
        engine = KOREngine(builder.build())
        query = KORQuery(s, t, ("kw",), delta)
        screened = self.drain(self.search(engine, query))
        with screen_from(NEVER):
            per_edge = self.drain(self.search(engine, query))
        assert fingerprint(screened) == fingerprint(per_edge)
        assert screened.stats.labels_pruned_budget == SCREEN_MIN_DEGREE - 1
        assert screened.route.nodes == (s, relay, relay + 1, t)

    def test_traced_search_takes_the_per_edge_loop(self, hubs):
        engine, query, _relay = hubs
        untraced = self.drain(self.search(engine, query))
        trace = SearchTrace()
        traced = self.drain(self.search(engine, query, trace=trace))
        assert fingerprint(traced) == fingerprint(untraced)
        assert len(trace.created_labels()) == traced.stats.labels_created

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound", "exact"))
    def test_border_engine_over_partitioned_tables(self, small_flickr, algorithm):
        from repro.datasets import QuerySetConfig, generate_query_set
        from repro.prep.partition import PartitionedCostTables
        from repro.service import BorderEngine

        graph = small_flickr.graph
        tables = PartitionedCostTables.from_graph(graph, num_cells=3, predecessors=True)
        engine = BorderEngine(graph, tables=tables)
        config = QuerySetConfig(num_queries=4, num_keywords=2, budget_limit=3.0, seed=11)
        queries = generate_query_set(graph, engine.index, config, tables=tables)
        screened = [fingerprint(engine.run(query, algorithm=algorithm)) for query in queries]
        with screen_from(NEVER):
            per_edge = [fingerprint(engine.run(query, algorithm=algorithm)) for query in queries]
        assert screened == per_edge
        assert any(routes[0] is not None for routes, _reason, _stats in screened)
        assert sum(stats["labels_pruned_budget"] for _r, _f, stats in screened) > 100

    def test_thread_backend_batch_equals_serial(self, small_flickr_engine):
        from repro.datasets import QuerySetConfig, generate_query_set
        from repro.service import QueryService, ThreadBackend

        engine = small_flickr_engine
        config = QuerySetConfig(num_queries=12, num_keywords=2, budget_limit=3.0, seed=3)
        queries = generate_query_set(engine.graph, engine.index, config, tables=engine.tables)
        serial = [fingerprint(engine.run(query, algorithm="osscaling")) for query in queries]
        with ThreadBackend(workers=4) as backend:
            with QueryService(engine, cache_capacity=0, backend=backend) as service:
                results = service.run_batch(queries, algorithm="osscaling")
        assert [fingerprint(result) for result in results] == serial


class TestTraceMatchesStats:
    """Every counted prune / enqueue / bound update is a trace event."""

    KINDS = {
        "create": "labels_created",
        "enqueue": "labels_enqueued",
        "prune_budget": "labels_pruned_budget",
        "prune_bound": "labels_pruned_bound",
        "prune_dominated": "labels_pruned_dominated",
        "prune_strategy2": "labels_pruned_strategy2",
        "bound_update": "bound_updates",
    }

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_event_counts_equal_counters(self, small_flickr_engine, algorithm):
        from repro.datasets import QuerySetConfig, generate_query_set

        engine = small_flickr_engine
        config = QuerySetConfig(num_queries=6, num_keywords=3, budget_limit=3.0, seed=5)
        queries = generate_query_set(engine.graph, engine.index, config, tables=engine.tables)
        strategy2 = 0
        for query in queries:
            trace = SearchTrace()
            # A threshold that makes one query keyword "infrequent".
            result = engine.run(query, algorithm=algorithm, trace=trace, infrequent_threshold=0.2)
            events = collections.Counter(event.kind for event in trace.events)
            # The root is enqueued without an event of its own.
            events["enqueue"] += result.stats.labels_enqueued > 0
            for kind, counter in self.KINDS.items():
                assert events[kind] == getattr(result.stats, counter), (algorithm, kind)
            strategy2 += result.stats.labels_pruned_strategy2
        assert strategy2 > 0
