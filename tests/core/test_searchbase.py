"""Tests for the shared search machinery (repro.core.searchbase)."""

import collections
import contextlib
import time

import numpy as np
import pytest

from repro.core import searchbase
from repro.core.bucketbound import BucketQueue, bucket_bound
from repro.core.deadline import Deadline
from repro.core.engine import KOREngine
from repro.core.label import VIA_JUMP, Label
from repro.core.query import KORQuery
from repro.core.results import SearchTrace
from repro.core.scaling import ScalingContext
from repro.core.searchbase import (
    SCREEN_MIN_DEGREE,
    Incumbent,
    LabelHeap,
    LabelSearch,
    SearchContext,
)
from repro.exceptions import DeadlineExceeded
from repro.graph.builder import GraphBuilder

from tests.core.test_kernels import STAT_FIELDS


def label_search(engine, query, algorithm="osscaling", **params):
    """The search ``os_scaling`` / ``bucket_bound`` builds, before it runs."""
    frontier = (lambda _ctx: LabelHeap()) if algorithm == "osscaling" else BucketQueue.factory(1.2)
    return LabelSearch(
        engine.graph, engine.tables, engine.index, query, algorithm, frontier, Incumbent(),
        **params,
    )


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
        # The label reads go through memoryviews; read whole, they hold the
        # tables' columns bit for bit.
        for view, column in (
            (ctx.os_tau_t_list, fig1_engine.tables.os_tau[:, 7]),
            (ctx.bs_sigma_t_list, fig1_engine.tables.bs_sigma[:, 7]),
        ):
            assert [read.hex() for read in list(view)] == [entry.hex() for entry in column.tolist()]

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


PROOF = "no feasible route exists"


class TestInfeasibilityProof:
    """The keyword-order budget proof on Figure 1: every tour through the
    only ``t5`` node costs at least 7, so Delta = 6 is proven hopeless
    before a label is popped."""

    QUERY = (0, 7, ("t5",), 6.0)

    def test_proof_fires(self, fig1_engine):
        assert make_context(fig1_engine, KORQuery(*self.QUERY)).impossibility_reason() == PROOF
        fits = make_context(fig1_engine, KORQuery(0, 7, ("t5",), 7.0))
        assert fits.impossibility_reason() is None

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound", "exact"))
    def test_searches_answer_the_unchanged_text_with_zero_counters(self, fig1_engine, algorithm):
        result = fig1_engine.query(*self.QUERY, algorithm=algorithm)
        assert result.route is None and result.failure_reason == PROOF
        assert [getattr(result.stats, name) for name in STAT_FIELDS] == [0] * len(STAT_FIELDS)

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_top_k_returns_no_route_and_pops_nothing(self, fig1_engine, algorithm):
        result = fig1_engine.top_k(*self.QUERY, k=3, algorithm=algorithm)
        assert result.routes == []
        assert result.stats.loops == 0 and result.stats.labels_created == 0

    @pytest.mark.parametrize("algorithm", ("greedy", "greedy2"))
    def test_greedy_still_returns_its_over_budget_route(self, fig1_engine, algorithm):
        result = fig1_engine.query(*self.QUERY, algorithm=algorithm)
        assert result.route.nodes == (0, 3, 1, 4, 7)
        assert result.route.budget_score == 14.0
        assert result.covers_keywords and not result.within_budget
        assert result.failure_reason is None

    def test_exhaustive_still_enumerates(self, fig1_engine):
        result = fig1_engine.query(*self.QUERY, algorithm="exhaustive")
        assert result.failure_reason == PROOF
        assert result.stats.loops == 11


class TestBudgetExactlyDelta:
    """A budget set exactly at the only covering route's cost.  The
    route sums its edges one by one; a label sums jump legs and edges in
    another association and reads an ulp above Delta.  Every budget
    compare of the search reads ``SearchContext.limit``, so the route is
    still found."""

    ROUTE = (70, 4, 62, 25, 8)

    @pytest.fixture(scope="class")
    def tight(self):
        from repro.core.query import QueryBinding

        from tests.properties.test_expand_properties import hub_instance
        from tests.properties.test_infeasibility_properties import cheapest_covering_walk

        graph, query = hub_instance(3501, 12)
        engine = KOREngine(graph)
        delta = cheapest_covering_walk(graph, QueryBinding.bind(graph, engine.index, query), query)
        assert delta == 2.213256511846619
        return engine, KORQuery(query.source, query.target, query.keywords, delta)

    def test_the_oracle_finds_the_route(self, tight):
        engine, query = tight
        result = engine.run(query, algorithm="exhaustive")
        assert result.route.nodes == self.ROUTE
        assert result.route.budget_score == query.budget_limit

    @pytest.mark.parametrize("algorithm", ("exact", "osscaling", "bucketbound"))
    def test_label_searches_find_it(self, tight, algorithm):
        engine, query = tight
        result = engine.run(query, algorithm=algorithm)
        assert result.feasible, result.failure_reason
        assert result.route.nodes == self.ROUTE

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_top_k_finds_it(self, tight, algorithm):
        engine, query = tight
        result = engine.top_k(
            query.source, query.target, query.keywords, query.budget_limit, k=2,
            algorithm=algorithm,
        )
        assert [route.nodes for route in result.routes] == [self.ROUTE]


def keyword_clique(m: int) -> KOREngine:
    """Source 0, target 1 and *m* nodes carrying one keyword each, every
    pair one unit apart: covering the query costs exactly ``m + 1``."""
    builder = GraphBuilder()
    builder.add_node(keywords=())
    builder.add_node(keywords=())
    for i in range(m):
        builder.add_node(keywords=(f"k{i}",))
    for i in range(2, m + 2):
        builder.add_edge(0, i, 1.0, 1.0)
        builder.add_edge(i, 1, 1.0, 1.0)
        for j in range(2, m + 2):
            if i != j:
                builder.add_edge(i, j, 1.0, 1.0)
    return KOREngine(builder.build())


class CountingDeadline(Deadline):
    """A deadline that counts its ticks."""

    def __init__(self, expires_at: float, tick_stride: int) -> None:
        super().__init__(expires_at, tick_stride=tick_stride)
        self.ticks = 0

    def tick(self) -> None:
        self.ticks += 1
        super().tick()


class TestManyKeywordProof:
    """Twelve keywords, Delta half a unit short: the witness fails, every
    keyword node passes the filter, and the subset DP walks ~2^12 states
    before it proves the query hopeless."""

    M = 12
    KEYWORDS = tuple(f"k{i}" for i in range(M))

    @pytest.fixture(scope="class")
    def engine(self):
        return keyword_clique(self.M)

    def test_tight_query_finishes_its_proof(self, engine):
        result = engine.query(0, 1, self.KEYWORDS, self.M + 0.5, algorithm="bucketbound")
        assert result.failure_reason == PROOF and result.stats.loops == 0
        fits = make_context(engine, KORQuery(0, 1, self.KEYWORDS, self.M + 1.0))
        assert fits.impossibility_reason() is None

    @pytest.mark.parametrize("stride", (1, 8, 32))
    def test_an_expired_deadline_ends_the_proof_within_its_tick_stride(self, engine, stride):
        query = KORQuery(0, 1, self.KEYWORDS, self.M + 0.5)
        deadline = CountingDeadline(time.monotonic() - 1.0, tick_stride=stride)
        with pytest.raises(DeadlineExceeded):
            bucket_bound(engine.graph, engine.tables, engine.index, query, deadline=deadline)
        assert deadline.ticks == stride

    def test_masks_past_63_keywords(self):
        """64 keywords on node 1 plus ``x`` at 2 and ``y`` at 3: the masks
        outgrow int64.  The witness takes 1 first (one unit away) and then
        pays 5 to leave it; the DP finds 0 -> 2 -> 3 -> 1 -> 4 at 5."""
        wide = tuple(f"w{i}" for i in range(64))
        builder = GraphBuilder()
        for keywords in ((), wide, ("x",), ("y",), ()):
            builder.add_node(keywords=keywords)
        for u, v, budget in (
            (0, 1, 1.0), (0, 2, 2.0), (0, 3, 2.0), (1, 4, 1.0), (2, 4, 1.0), (3, 4, 1.0),
            (1, 2, 5.0), (1, 3, 5.0), (2, 1, 5.0), (3, 2, 5.0), (2, 3, 1.0), (3, 1, 1.0),
        ):  # fmt: skip
            builder.add_edge(u, v, 1.0, budget)
        engine = KOREngine(builder.build())
        keywords = wide + ("x", "y")
        busts = engine.query(0, 4, keywords, 4.9, algorithm="bucketbound")
        assert busts.failure_reason == PROOF and busts.stats.loops == 0
        fits = engine.query(0, 4, keywords, 5.0, algorithm="bucketbound")
        assert fits.route.nodes == (0, 2, 3, 1, 4)


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
        floor = float(fig1_engine.tables.os_tau[0, 1] + fig1_engine.tables.os_tau[1, 7])
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
        assert route.budget_score == pytest.approx(seg_bs + fig1_engine.tables.bs_tau[5, 7])


class TestCrossCellReads:
    """Over partitioned tables the two strategies read what the full
    rows hold, and the search loop never assembles a full row or a
    scalar pair to get it."""

    @pytest.fixture(scope="class")
    def border_engine(self):
        from repro.datasets import RoadConfig, build_road_graph
        from repro.prep.partition import PartitionedCostTables

        graph = build_road_graph(RoadConfig(num_nodes=150, seed=7))
        tables = PartitionedCostTables.from_graph(graph, num_cells=3, predecessors=True)
        return KOREngine(graph, tables=tables)

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

    @pytest.mark.parametrize("partitioned", (True, False), ids=("partitioned", "flat"))
    def test_jump_candidate_equals_full_row_computation(self, border_engine, queries, partitioned):
        """Labels as a search builds them: each holds the source's bits and
        its node's, and some one more keyword, so the jump reads the
        query's keyword-node set with the positions outside the label's
        missing mask silenced — on both table classes."""
        engine = border_engine if partitioned else KOREngine(border_engine.graph)
        jumps = narrowed = 0
        for query in queries:
            ctx = make_context(engine, query)
            start = ctx.binding.node_mask(query.source)
            extras = [0] + [1 << bit for bit in ctx.binding.uncovered_bits(start)]
            for node in range(0, engine.graph.num_nodes, 7):
                for extra in extras:
                    mask = start | ctx.binding.node_mask(node) | extra
                    missing = ctx.binding.full_mask & ~mask
                    for bs in (0.0, 1.0, 4.0):
                        label = Label(node, mask, 0.0, 0.0, bs)
                        got = ctx.jump_candidate(label)
                        assert got == self.jump_from_full_rows(ctx, label)
                        jumps += got is not None
                        narrowed += got is not None and missing != ctx.binding.full_mask & ~start
        # The comparison is not vacuous, and labels missing fewer keywords
        # than the source pick among fewer nodes of the set.
        assert jumps > 50 and narrowed > 50, (jumps, narrowed)

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
        from repro.prep.partition import PartitionedCostTables

        calls = {"_assemble_pair": 0, "_rows": 0}
        for name in calls:
            original = getattr(PartitionedCostTables, name)

            def counting(self, *args, _name=name, _original=original):
                calls[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(PartitionedCostTables, name, counting)

        popped = found = 0
        for query in queries:
            search = label_search(border_engine, query, algorithm, infrequent_threshold=0.2)
            before = dict(calls)
            entries = search.ctx.bs_tau_t
            read_before = len(entries._memo)
            # The counts as the loop ends, before the answer is packaged.
            ends = []

            def package(*args, _package=search._package):
                ends.append((dict(calls), len(entries._memo)))
                return _package(*args)

            search._package = package
            result = search.run()
            (at_end, read_at_end), = ends
            popped += result.stats.loops
            assert at_end["_rows"] == 0, f"{query}: the loop fell back to a full row"
            # The loop's only pair lookups are the per-node BS(tau_{i,t})
            # reads of labels covering every keyword, one per node read.
            loop_pairs = at_end["_assemble_pair"] - before["_assemble_pair"]
            assert loop_pairs == read_at_end - read_before, query
            # Materialising the answer is where paths are assembled.
            found += result.found
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


@contextlib.contextmanager
def floor_from(degree):
    """Run the body with :data:`FLOOR_MIN_DEGREE` set to *degree*."""
    saved = searchbase.FLOOR_MIN_DEGREE
    searchbase.FLOOR_MIN_DEGREE = degree
    try:
        yield
    finally:
        searchbase.FLOOR_MIN_DEGREE = saved


#: Above every out-degree: the per-edge loop, the screen's reference, and
#: no keyword floor.
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
        return label_search(engine, query, use_strategy1=False, **params)

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
        result = search.run()

        assert result.feasible and search.stats.loops == 2  # s, then relay
        assert [args[:4] for args in considered] == expected
        assert 0 < len(considered) < search.stats.labels_created
        assert all(args[4] == original_scale(ctx.scaling, args[2]) for args in considered)
        assert scaled == [args[2] for args in considered]

    def test_bound_tightened_inside_a_block_kills_later_survivors(self, hubs):
        engine, query, _relay = hubs
        with screen_from(NEVER):
            reference = self.search(engine, query).run().stats

        search = self.search(engine, query)
        in_consider = {"bound": 0, "budget": 0}
        original_consider = search.consider

        def consider(*args):
            before = search.stats.labels_pruned_bound, search.stats.labels_pruned_budget
            original_consider(*args)
            in_consider["bound"] += search.stats.labels_pruned_bound - before[0]
            in_consider["budget"] += search.stats.labels_pruned_budget - before[1]

        search.consider = consider
        stats = search.run().stats

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
        screened = self.search(engine, query).run()
        with screen_from(NEVER):
            per_edge = self.search(engine, query).run()
        assert fingerprint(screened) == fingerprint(per_edge)
        assert screened.stats.labels_pruned_budget == SCREEN_MIN_DEGREE - 1
        assert screened.route.nodes == (s, relay, relay + 1, t)

    def test_traced_search_takes_the_per_edge_loop(self, hubs):
        engine, query, _relay = hubs
        untraced = self.search(engine, query).run()
        trace = SearchTrace()
        traced = self.search(engine, query, trace=trace).run()
        assert fingerprint(traced) == fingerprint(untraced)
        assert len(trace.created_labels()) == traced.stats.labels_created

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound", "exact"))
    def test_border_engine_over_partitioned_tables(self, small_flickr, algorithm):
        from repro.datasets import QuerySetConfig, generate_query_set
        from repro.prep.partition import PartitionedCostTables

        graph = small_flickr.graph
        tables = PartitionedCostTables.from_graph(graph, num_cells=3, predecessors=True)
        engine = KOREngine(graph, tables=tables)
        config = QuerySetConfig(num_queries=4, num_keywords=2, budget_limit=3.0, seed=11)
        queries = generate_query_set(graph, engine.index, config, tables=tables)
        screened = [fingerprint(engine.run(query, algorithm=algorithm)) for query in queries]
        with screen_from(NEVER):
            per_edge = [fingerprint(engine.run(query, algorithm=algorithm)) for query in queries]
        assert screened == per_edge
        assert any(routes[0] is not None for routes, _reason, _stats in screened)
        # Without the keyword floor, which drops labels before they reach a
        # hub, the screen prunes over 100 on a budget: the same comparison
        # there exercises it.
        with floor_from(NEVER):
            unfloored = [fingerprint(engine.run(query, algorithm=algorithm)) for query in queries]
            with screen_from(NEVER):
                unfloored_per_edge = [
                    fingerprint(engine.run(query, algorithm=algorithm)) for query in queries
                ]
        assert unfloored == unfloored_per_edge
        assert sum(stats["labels_pruned_budget"] for _r, _f, stats in unfloored) > 100

    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound", "greedy2"))
    def test_concurrent_callers_equal_serial(self, small_flickr_engine, algorithm):
        """Four threads submitting to one service share the engine's
        search caches, as the async front end's executor threads do."""
        from concurrent.futures import ThreadPoolExecutor

        from repro.datasets import QuerySetConfig, generate_query_set
        from repro.service import QueryService

        engine = small_flickr_engine
        config = QuerySetConfig(num_queries=12, num_keywords=2, budget_limit=3.0, seed=3)
        queries = generate_query_set(engine.graph, engine.index, config, tables=engine.tables)
        serial = [fingerprint(engine.run(query, algorithm=algorithm)) for query in queries]
        with QueryService(engine, cache_capacity=0) as service:
            with ThreadPoolExecutor(max_workers=4) as pool:
                results = list(
                    pool.map(lambda query: service.submit(query, algorithm=algorithm), queries)
                )
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

    @pytest.mark.parametrize("k", (None, 3))
    @pytest.mark.parametrize("algorithm", ("osscaling", "bucketbound"))
    def test_event_counts_equal_counters(self, small_flickr_engine, algorithm, k):
        """Top-1 (``k=None``) and KkR searches alike."""
        from repro.datasets import QuerySetConfig, generate_query_set

        engine = small_flickr_engine
        config = QuerySetConfig(num_queries=6, num_keywords=3, budget_limit=3.0, seed=5)
        queries = generate_query_set(engine.graph, engine.index, config, tables=engine.tables)
        strategy2 = 0
        for query in queries:
            trace = SearchTrace()
            # A threshold that makes one query keyword "infrequent".
            params = {"algorithm": algorithm, "trace": trace, "infrequent_threshold": 0.2}
            if k is None:
                result = engine.run(query, **params)
            else:
                result = engine.top_k(
                    query.source, query.target, query.keywords, query.budget_limit, k, **params
                )
            events = collections.Counter(event.kind for event in trace.events)
            # The root is enqueued without an event of its own (and KkR
            # never counted it among the enqueued labels).
            events["enqueue"] += k is None and result.stats.labels_enqueued > 0
            for kind, counter in self.KINDS.items():
                assert events[kind] == getattr(result.stats, counter), (algorithm, kind)
            strategy2 += result.stats.labels_pruned_strategy2
        assert strategy2 > 0
