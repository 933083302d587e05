"""Differential property: the memoised Strategy-1 jump equals a memo-free one.

``SearchContext.jump_candidate`` remembers, per ``(node, missing mask)``,
the nearest uncovered keyword node and answers from it while that node
stays feasible.  Here the same context is asked about label sequences
that revisit a ``(node, mask)`` with rising and falling ``bs`` and must
agree, call by call, with a reference that reads ``*_row(i)[nodes]`` and
remembers nothing — on flat and on partitioned tables.  Weights come from
a small discrete pool, so first-index ties among candidates are the norm.
"""

import random

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.label import Label
from repro.core.query import KORQuery
from repro.core.scaling import ScalingContext
from repro.core.searchbase import SearchContext
from repro.graph.builder import GraphBuilder
from repro.index.inverted import InvertedIndex
from repro.prep.partition import PartitionedCostTables
from repro.prep.tables import CostTables

from tests.service.test_differential import KEYWORD_POOL, WEIGHTS

SLOW = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: Label budgets: exact sums of ``WEIGHTS`` (so ``== Delta`` happens) and
#: values between them.
BS_POOL = (0.0, 0.5, 1.0, 1.5, 2.25, 3.0, 4.0, 5.5, 8.0)


def reference_jump(ctx, label):
    """Strategy 1 from the full rows, with nothing remembered between calls."""
    missing = ctx.binding.full_mask & ~label.mask
    lists = [
        postings
        for bit, postings in enumerate(ctx.binding.nodes_with_bit)
        if missing & (1 << bit) and len(postings)
    ]
    if not lists:
        return None
    nodes = np.unique(np.concatenate(lists))
    seg_bs = ctx.tables.bs_sigma_row(label.node)[nodes]
    feasible = (label.bs + seg_bs + ctx.bs_sigma_t[nodes]) <= ctx.delta
    if not feasible.any():
        return None
    best = int(np.where(feasible, seg_bs, np.inf).argmin())
    seg_os = ctx.tables.os_sigma_row(label.node)[nodes[best]]
    return int(nodes[best]), float(seg_os), float(seg_bs[best])


def contexts(graph, query, cells):
    """One search context per table class over the same graph and query."""
    index = InvertedIndex.from_graph(graph)
    scaling = ScalingContext.for_query(graph, query.budget_limit, 0.5)
    for tables in (
        CostTables.from_graph(graph, predecessors=False),
        PartitionedCostTables.from_graph(graph, num_cells=cells, seed=0),
    ):
        yield SearchContext(graph, tables, index, query, scaling)


def assert_jumps_equal(ctx, visits) -> int:
    """Every ``(node, mask, bs)`` visit answers as the reference; returns
    how many visits were answered from the memo.  Each label holds the
    source's keyword bits besides *mask*, as every label a search builds
    does."""
    remembered = 0
    start = ctx.binding.node_mask(ctx.query.source)
    for node, mask, bs in visits:
        mask |= start
        label = Label(node, mask, 0.0, 0.0, bs)
        missing = ctx.binding.full_mask & ~mask
        remembered += (node, missing) in ctx._nearest
        got = ctx.jump_candidate(label)
        assert got == reference_jump(ctx, label), (type(ctx.tables).__name__, node, mask, bs)
        assert got is None or [type(value) for value in got] == [int, float, float]
    return remembered


def random_instance(seed: int):
    """A sparse-to-dense digraph over the discrete weight pool, and a query."""
    rng = random.Random(seed)
    n = rng.randint(4, 12)
    density = rng.choice((0.12, 0.25, 0.5))
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node(keywords=rng.sample(KEYWORD_POOL, rng.randint(0, 2)))
    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    for u, v in edges or [(0, 1)]:
        builder.add_edge(u, v, rng.choice(WEIGHTS), rng.choice(WEIGHTS))
    graph = builder.build()
    present = sorted(set(graph.keyword_table.words))
    keywords = tuple(rng.sample(present, rng.randint(1, min(3, len(present))))) if present else ()
    query = KORQuery(rng.randrange(n), rng.randrange(n), keywords, rng.choice((2.0, 4.0, 6.0, 9.0)))
    return graph, query, rng.randint(1, min(4, n))


class TestJumpMemo:
    @SLOW
    @given(st.integers(0, 2**32 - 1), st.data())
    def test_memoised_jump_equals_memo_free_reference(self, seed, data):
        graph, query, cells = random_instance(seed)
        n = graph.num_nodes
        visit = st.tuples(
            st.integers(0, n - 1),
            st.integers(0, (1 << len(query.keywords)) - 1),
            st.sampled_from(BS_POOL),
        )
        drawn = data.draw(st.lists(visit, max_size=40))
        # Every (node, mask) the draw touched, swept along the pool and
        # back: the nearest candidate goes infeasible and returns.  Fresh
        # contexts meet the falling sweep first, so a (node, mask) is
        # first seen while only a farther candidate fits.
        touched = list(dict.fromkeys((node, mask) for node, mask, _bs in drawn))
        rising = [(node, mask, bs) for node, mask in touched for bs in BS_POOL + BS_POOL[::-1]]
        falling = [(node, mask, bs) for node, mask in touched for bs in BS_POOL[::-1] + BS_POOL]
        for visits in (drawn + rising, falling + drawn):
            for ctx in contexts(graph, query, cells):
                assert_jumps_equal(ctx, visits)

    def test_memo_is_capped_per_context(self, monkeypatch):
        graph, query, cells = random_instance(3)
        monkeypatch.setattr(SearchContext, "MAX_JUMP_MEMO", 2)
        visits = [(node, 0, bs) for bs in (0.0, 1.0) for node in range(graph.num_nodes)]
        for ctx in contexts(graph, query, cells):
            assert_jumps_equal(ctx, visits * 2)
            assert 0 < len(ctx._nearest) <= 2


# ----------------------------------------------------------------------
# the named cases, on a graph small enough to read
# ----------------------------------------------------------------------
def detour_graph():
    """``0`` is the source and ``3`` the target.  ``pub`` sits at 1 (one
    budget unit from 0, five from 3), at 2 (two from 0, one from 3) and at
    4, which nothing reaches; ``cafe`` sits at 5 alone."""
    builder = GraphBuilder()
    for keywords in ((), ("pub",), ("pub",), (), ("pub",), ("cafe",)):
        builder.add_node(keywords=keywords)
    via_pubs = ((0, 1, 1.0), (1, 3, 5.0), (0, 2, 2.0), (2, 3, 1.0), (4, 3, 1.0))
    for u, v, budget in via_pubs + ((0, 5, 1.0), (5, 3, 1.0)):
        builder.add_edge(u, v, 1.0, budget)
    return builder.build()


@pytest.mark.parametrize("cells", (1, 2, 3))
class TestNamedCases:
    def jumps(self, cells, keywords, delta, budgets):
        query = KORQuery(0, 3, keywords, delta)
        answers = []
        for ctx in contexts(detour_graph(), query, cells):
            visits = [(0, 0, bs) for bs in budgets]
            remembered = assert_jumps_equal(ctx, visits)
            again = [ctx.jump_candidate(Label(0, 0, 0.0, 0.0, bs)) for bs in budgets]
            answers.append((again, remembered))
        assert answers[0] == answers[1]  # flat and partitioned agree
        return answers[0]

    def test_nearest_infeasible_but_farther_feasible(self, cells):
        # 1 is nearest but 0 + 1 + 5 busts Delta = 4; 2 fits at 0 + 2 + 1.
        answers, _ = self.jumps(cells, ("pub",), 4.0, (0.0,))
        assert answers == [(2, 1.0, 2.0)]

    def test_nearest_leaves_and_returns_as_bs_rises_and_falls(self, cells):
        answers, remembered = self.jumps(cells, ("pub",), 10.0, (0.0, 5.0, 8.0, 5.0, 4.0, 0.0))
        near, far = (1, 1.0, 1.0), (2, 1.0, 2.0)
        assert answers == [near, far, None, far, near, near]
        assert remembered == 5  # every visit after the first met the memo
        # Met first while only the farther one fits: that is not remembered.
        answers, remembered = self.jumps(cells, ("pub",), 10.0, (5.0, 0.0, 5.0))
        assert answers == [far, near, far]
        assert remembered == 1

    def test_no_candidate_feasible(self, cells):
        answers, remembered = self.jumps(cells, ("pub",), 2.5, (0.0, 1.0, 0.0))
        assert answers == [None, None, None]
        assert remembered == 0  # nothing feasible, nothing remembered

    def test_unreachable_candidates_stay_silent_and_false(self, cells):
        # From the target every pub node is unreachable (inf); from 0 only
        # 4 is, and from 4 all but itself.
        query = KORQuery(0, 3, ("pub",), 50.0)
        for ctx in contexts(detour_graph(), query, cells):
            assert np.isinf(ctx.tables.bs_sigma_row(3)[[1, 2, 4]]).all()
            assert_jumps_equal(ctx, [(3, 0, 0.0), (4, 0, 0.0), (0, 0, 0.0), (3, 0, 1.0)])
            assert ctx.jump_candidate(Label(3, 0, 0.0, 0.0, 0.0)) is None
            assert ctx.jump_candidate(Label(4, 0, 0.0, 0.0, 0.0)) == (4, 0.0, 0.0)

    def test_one_node_candidate_set(self, cells):
        answers, remembered = self.jumps(cells, ("cafe",), 4.0, (0.0, 2.0, 2.5, 0.0))
        assert answers == [(5, 1.0, 1.0), (5, 1.0, 1.0), None, (5, 1.0, 1.0)]
        assert remembered == 3
