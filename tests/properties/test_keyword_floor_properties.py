"""The keyword floor against the oracles.

A label at a node of out-degree >= ``FLOOR_MIN_DEGREE`` is dropped when,
for some keyword it misses, every route through a node carrying that
keyword busts the budget or cannot beat the bound
(``SearchContext.floor_rejects``).  Both sides are lower bounds on every
covering completion, so on ``hub_instance`` graphs — hubs of 2x-20x the
gate beside leaves below it — over flat and two-cell partitioned tables,
with the floor at its gate and with it above every degree:

* the exact search returns the same route and scores, and the scores
  equal :func:`exhaustive_search`'s (when the oracle finishes) — also at a
  budget set exactly at the cheapest covering walk, where the floor's
  sums and the route's associate differently, and on weights that make
  routes tie on paper and differ by an ulp in floats;
* OSScaling stays within ``1/(1-eps)`` of the optimum and BucketBound
  within ``beta/(1-eps)``;
* with ``infrequent_threshold=0`` the rare-keyword test never runs, so
  the ``labels_pruned_strategy2`` summed over the sample are the floor's;
* every prefix of the cheapest covering walk survives the floor at a
  budget of exactly that walk's cost, summed edge by edge;
* a floor is built only at a node where a label missing a keyword was
  tested.
"""

import heapq
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import exhaustive_search
from repro.core.engine import KOREngine
from repro.core.query import KORQuery, QueryBinding
from repro.core.results import SearchTrace
from repro.core.scaling import ScalingContext
from repro.core.searchbase import _PROOF_SLACK, FLOOR_MIN_DEGREE, SearchContext
from repro.exceptions import QueryError
from repro.graph.builder import GraphBuilder
from repro.prep.partition import PartitionedCostTables

from tests.core.test_searchbase import NEVER, floor_from, label_search
from tests.properties.test_expand_properties import hub_instance
from tests.properties.test_infeasibility_properties import cheapest_covering_walk

SLOW = settings(
    max_examples=15,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: ``hub_instance`` gives its hubs at least twice this many out-edges.
HUB_THRESHOLD = FLOOR_MIN_DEGREE // 2

#: Queue pops after which the oracle gives up on an instance.
ORACLE_EXPANSIONS = 20_000

NO_RARE_KEYWORD = {"infrequent_threshold": 0.0}

#: Weights whose sums tie on paper and differ by an ulp in floats
#: (``0.1 + 0.2 != 0.3``): equal-objective routes the floor's sums and the
#: search's own can order differently.
TIED_WEIGHTS = (0.1, 0.2, 0.3, 0.7)


def instance(seed: int, ties: bool = False):
    """``hub_instance``'s graph and query, its weights moved onto
    :data:`TIED_WEIGHTS` when *ties* is set."""
    graph, query = hub_instance(seed, HUB_THRESHOLD)
    if not ties:
        return graph, query
    builder = GraphBuilder()
    for u in range(graph.num_nodes):
        builder.add_node(keywords=sorted(graph.node_keyword_strings(u)))
    for u in range(graph.num_nodes):
        for v, objective, budget in graph.out_edges(u):
            builder.add_edge(u, v, *(TIED_WEIGHTS[int(w * 10) % 4] for w in (objective, budget)))
    return builder.build(), query


def engines(graph):
    """The graph over flat and over two-cell partitioned tables."""
    flat = KOREngine(graph)
    tables = PartitionedCostTables.from_graph(graph, num_cells=2, predecessors=True)
    return {"flat": flat, "partitioned": KOREngine(graph, tables=tables)}


def answer(result):
    """Route and scores: what the floor must not change."""
    route = result.route
    if route is None:
        return None, result.failure_reason
    return route.nodes, route.objective_score, route.budget_score


def exact_answers_agree(engine, query, where):
    """The exact search's answer, asserted equal with the floor off."""
    exact = engine.run(query, algorithm="exact")
    with floor_from(NEVER):
        unfloored = engine.run(query, algorithm="exact")
    assert answer(exact) == answer(unfloored), where
    return exact


def check_instance(seed: int, epsilon: float, beta: float, ties: bool) -> tuple[int, int]:
    """Check one instance at its own budget and at its tight one; returns
    the floor's prunes and how many answers the oracle confirmed."""
    graph, query = instance(seed, ties)
    assert any(graph.out_degree(u) >= FLOOR_MIN_DEGREE for u in range(graph.num_nodes))
    built = engines(graph)
    index = built["flat"].index
    cheapest = cheapest_covering_walk(graph, QueryBinding.bind(graph, index, query), query)
    tight = [cheapest] if 0 < cheapest < math.inf else []
    pruned = confirmed = 0
    for delta in [query.budget_limit, *tight]:
        probe = KORQuery(query.source, query.target, query.keywords, delta)
        # The searches fit a budget up to ``Delta * (1 + _PROOF_SLACK)``:
        # on TIED_WEIGHTS a route at the tight budget on paper can sum an
        # ulp above it, so the oracle gets the same limit.
        limit = KORQuery(query.source, query.target, query.keywords, delta * (1 + _PROOF_SLACK))
        try:
            oracle = exhaustive_search(graph, index, limit, max_expansions=ORACLE_EXPANSIONS)
        except QueryError:
            oracle = None
        for name, engine in built.items():
            where = (seed, ties, delta, name)
            exact = exact_answers_agree(engine, probe, where)
            if oracle is not None:
                confirmed += 1
                assert exact.feasible == oracle.feasible, where
                if oracle.feasible:
                    assert exact.objective_score == pytest.approx(oracle.objective_score, abs=1e-9)
            osscaling = engine.run(probe, algorithm="osscaling", epsilon=epsilon, **NO_RARE_KEYWORD)
            bucketbound = engine.run(
                probe, algorithm="bucketbound", epsilon=epsilon, beta=beta, **NO_RARE_KEYWORD
            )
            pruned += osscaling.stats.labels_pruned_strategy2
            pruned += bucketbound.stats.labels_pruned_strategy2
            assert osscaling.feasible == bucketbound.feasible == exact.feasible, where
            if exact.feasible and osscaling.feasible and bucketbound.feasible:
                best = exact.objective_score
                assert osscaling.objective_score <= best / (1 - epsilon) + 1e-9, where
                assert bucketbound.objective_score <= best * beta / (1 - epsilon) + 1e-9, where
    return pruned, confirmed


def cheapest_covering_route(graph, binding, query) -> list[int] | None:
    """The nodes of a least-budget walk source -> target covering every
    query keyword: Dijkstra over ``(node, covered mask)``."""
    start = (query.source, binding.node_mask(query.source))
    best, before = {start: 0.0}, {start: None}
    heap = [(0.0, *start)]
    while heap:
        spent, node, mask = heapq.heappop(heap)
        if spent > best[(node, mask)]:
            continue
        if node == query.target and mask == binding.full_mask:
            walk, state = [], (node, mask)
            while state is not None:
                walk.append(state[0])
                state = before[state]
            return walk[::-1]
        for head, _objective, budget in graph.out_edges(node):
            state = (head, mask | binding.node_mask(head))
            if spent + budget < best.get(state, math.inf):
                best[state], before[state] = spent + budget, (node, mask)
                heapq.heappush(heap, (spent + budget, *state))
    return None


def check_walk_prefixes(seed: int) -> int:
    """Walk the cheapest covering route with Delta at its cost, summed
    edge by edge; returns how many of its prefixes sat at a node with a
    floor."""
    graph, query = instance(seed)
    built = engines(graph)
    binding = QueryBinding.bind(graph, built["flat"].index, query)
    walk = cheapest_covering_route(graph, binding, query)
    if walk is None or len(walk) < 2:
        return 0
    steps = [
        next(edge for edge in graph.out_edges(u) if edge[0] == v) for u, v in zip(walk, walk[1:])
    ]
    delta = sum(budget for _head, _objective, budget in steps)
    probe = KORQuery(query.source, query.target, query.keywords, delta)
    scaling = ScalingContext.for_query(graph, delta, 0.5)
    tested = 0
    for engine in built.values():
        ctx = SearchContext(graph, engine.tables, engine.index, probe, scaling)
        node, mask, os, bs = walk[0], binding.node_mask(walk[0]), 0.0, 0.0
        for position in range(len(walk)):
            if position:
                node, objective, budget = steps[position - 1]
                mask, os, bs = mask | binding.node_mask(node), os + objective, bs + budget
            assert not ctx.floor_rejects(node, mask, os, bs, math.inf), (seed, walk, position)
            tested += graph.out_degree(node) >= FLOOR_MIN_DEGREE and mask != binding.full_mask
    return tested


def check_floors_are_lazy(seed: int) -> int:
    """Nodes with a floor after a traced search had a label missing a
    keyword; returns how many floors were built.  Besides the instance's
    query, each hub's own keywords are asked for: every label at that hub
    covers them all, so it never needs a floor."""
    graph, query = instance(seed)
    hubs = [u for u in range(graph.num_nodes) if graph.out_degree(u) >= FLOOR_MIN_DEGREE]
    queries = [query] + [
        KORQuery(query.source, query.target, sorted(graph.node_keyword_strings(hub)), 40.0)
        for hub in hubs
        if hub != query.source and graph.node_keyword_strings(hub)
    ]
    built = 0
    for engine in engines(graph).values():
        for probe in queries:
            for algorithm in ("osscaling", "bucketbound"):
                trace = SearchTrace()
                search = label_search(engine, probe, algorithm, trace=trace, **NO_RARE_KEYWORD)
                search.run()
                full = search.ctx.binding.full_mask
                missing_at = {event.node for event in trace.events if event.mask != full}
                floors = {node for node, floor in search.ctx._floors.items() if floor}
                assert floors <= missing_at, (seed, probe, algorithm, floors - missing_at)
                built += len(floors)
    return built


class TestFloorAgainstOracles:
    @SLOW
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((0.1, 0.5, 0.9)),
        st.sampled_from((1.2, 1.6, 2.0)),
        st.booleans(),
    )
    def test_answers_and_bounds_hold(self, seed, epsilon, beta, ties):
        check_instance(seed, epsilon, beta, ties)

    def test_seeded_battery_prunes(self):
        """A fixed battery, so a regression reproduces without Hypothesis,
        and the floor provably fires on it."""
        pruned = confirmed = 0
        for seed in range(12):
            got = check_instance(seed, 0.5, 1.2, ties=False)
            pruned, confirmed = pruned + got[0], confirmed + got[1]
        assert pruned > 0
        assert confirmed > 0

    def test_seeded_ties(self):
        """Exact answers on tied weights; seed 34 has an equal-objective
        route whose prefix the objective floor reads an ulp above ``U``
        without the slack."""
        for seed in range(60):
            graph, query = instance(seed, ties=True)
            for name, engine in engines(graph).items():
                exact_answers_agree(engine, query, (seed, name))

    @SLOW
    @given(st.integers(0, 2**32 - 1))
    def test_walk_prefixes_at_their_own_budget_survive(self, seed):
        check_walk_prefixes(seed)

    def test_seeded_walk_prefixes(self):
        assert sum(check_walk_prefixes(seed) for seed in range(20)) > 0

    def test_floors_are_built_only_where_a_keyword_is_missing(self):
        assert sum(check_floors_are_lazy(seed) for seed in range(12)) > 0
