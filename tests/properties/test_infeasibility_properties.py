"""Soundness of the keyword-order budget proof against the exhaustive oracle.

``SearchContext.impossibility_reason`` answers "no feasible route exists"
before a search pops a label when the cheapest budget of any route that
covers the keywords — ``BS(sigma)`` legs summed over the best visiting
order and node choice — exceeds Delta.  Here that proof is checked against
:func:`exhaustive_search`, which enumerates walks and reads no table:

* it fires only on queries the oracle finds infeasible, never on one the
  oracle answers — including budgets set exactly at the cheapest covering
  walk, where the proof's sums and the walk's associate differently;
* on those same graphs it is complete: every query the oracle finds
  infeasible is screened out (by the proof or an earlier screen), except
  a budget inside the proof's relative slack;
* on flat and on partitioned tables alike, with discrete weights (exact
  sums, ties everywhere) and float weights.
"""

import heapq
import math
import random

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.bruteforce import exhaustive_search
from repro.core.engine import KOREngine
from repro.core.query import KORQuery, QueryBinding
from repro.core.scaling import ScalingContext
from repro.core.searchbase import _PROOF_SLACK, SearchContext
from repro.graph.builder import GraphBuilder
from repro.index.inverted import InvertedIndex
from repro.prep.partition import PartitionedCostTables
from repro.prep.tables import CostTables

from tests.service.test_differential import KEYWORD_POOL, WEIGHTS

SLOW = settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])

PROOF = "no feasible route exists"


def cheapest_covering_walk(graph, binding, query) -> float:
    """The least budget of any walk source -> target covering every query
    keyword: Dijkstra over ``(node, covered mask)``, edge budgets summed in
    walk order exactly as :func:`exhaustive_search` sums them."""
    start = (query.source, binding.node_mask(query.source))
    best = {start: 0.0}
    heap = [(0.0, *start)]
    while heap:
        spent, node, mask = heapq.heappop(heap)
        if spent > best[(node, mask)]:
            continue
        if node == query.target and mask == binding.full_mask:
            return spent
        for head, _objective, budget in graph.out_edges(node):
            state = (head, mask | binding.node_mask(head))
            if spent + budget < best.get(state, math.inf):
                best[state] = spent + budget
                heapq.heappush(heap, (spent + budget, *state))
    return math.inf


def random_instance(seed: int, discrete: bool):
    """A seeded digraph, its keyword queries, and a cell count."""
    rng = random.Random(seed)
    n = rng.randint(3, 7)
    density = rng.choice((0.2, 0.35, 0.55))
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node(keywords=rng.sample(KEYWORD_POOL, rng.randint(0, 2)))

    def weight() -> float:
        return rng.choice(WEIGHTS) if discrete else rng.uniform(1.0, 3.0)

    edges = [(u, v) for u in range(n) for v in range(n) if u != v and rng.random() < density]
    for u, v in edges or [(0, 1)]:
        builder.add_edge(u, v, weight(), weight())
    graph = builder.build()
    present = sorted(set(graph.keyword_table.words))
    queries = []
    for _ in range(4 if present else 0):
        keywords = tuple(rng.sample(present, rng.randint(1, min(3, len(present)))))
        queries.append((rng.randrange(n), rng.randrange(n), keywords))
    return graph, queries, rng.randint(1, min(3, n))


def budgets(cheapest: float) -> tuple[float, ...]:
    """Exactly at the cheapest covering walk, a hair either side and half
    of it; a fixed pair when no walk covers the query or none is needed."""
    if math.isinf(cheapest) or cheapest == 0:
        return (2.0, 6.0)
    return (cheapest, cheapest * (1 - 1e-6), cheapest * (1 + 1e-6), cheapest / 2)


def reasons(graph, query, cells):
    """``impossibility_reason`` over flat and partitioned tables."""
    index = InvertedIndex.from_graph(graph)
    scaling = ScalingContext.for_query(graph, query.budget_limit, 0.5)
    for tables in (
        CostTables.from_graph(graph, predecessors=False),
        PartitionedCostTables.from_graph(graph, num_cells=cells, seed=0),
    ):
        yield SearchContext(graph, tables, index, query, scaling).impossibility_reason()


def check_instance(graph, queries, cells) -> None:
    index = InvertedIndex.from_graph(graph)
    for source, target, keywords in queries:
        probe = KORQuery(source, target, keywords, 1.0)
        cheapest = cheapest_covering_walk(graph, QueryBinding.bind(graph, index, probe), probe)
        for delta in budgets(cheapest):
            query = KORQuery(source, target, keywords, delta)
            oracle = exhaustive_search(graph, index, query)
            assert oracle.feasible == (cheapest <= delta), (query, cheapest)
            for reason in reasons(graph, query, cells):
                if oracle.feasible:
                    assert reason is None, (query, cheapest, reason)
                elif cheapest > delta * (1 + _PROOF_SLACK):
                    assert reason is not None, (query, cheapest)


class TestProofAgainstOracle:
    @SLOW
    @given(st.integers(0, 2**32 - 1), st.booleans())
    # Partitioned tables read BS(sigma_{s,t}) an ulp above a walk costing
    # exactly Delta: the cheapest-budget screen must take the slack too.
    @example(234, False)
    def test_proof_fires_exactly_when_the_oracle_finds_nothing(self, seed, discrete):
        check_instance(*random_instance(seed, discrete))

    @pytest.mark.parametrize("discrete", (True, False))
    def test_seeded_battery(self, discrete):
        """A fixed battery, so a regression reproduces without Hypothesis."""
        for seed in range(40):
            check_instance(*random_instance(seed, discrete))


# ----------------------------------------------------------------------
# the witness meets keyword nodes it cannot reach
# ----------------------------------------------------------------------
def stranding_graph():
    """``0`` is the source, ``3`` the target.  ``pub`` sits at 1, one unit
    from 0; ``cafe`` at 2, five units from 0.  From 1 only the target is
    reachable, so the nearest-uncovered chain strands at 1 with ``cafe``
    open; the one covering route is 0 -> 2 -> 1 -> 3, budget 7."""
    builder = GraphBuilder()
    for keywords in ((), ("pub",), ("cafe",), ()):
        builder.add_node(keywords=keywords)
    for u, v, budget in ((0, 1, 1.0), (0, 2, 5.0), (2, 1, 1.0), (1, 3, 1.0)):
        builder.add_edge(u, v, 1.0, budget)
    return builder.build()


class TestStrandedWitness:
    @pytest.mark.parametrize("cells", (1, 2))
    def test_proof_goes_past_a_stranded_witness(self, cells):
        graph = stranding_graph()
        engine = KOREngine(graph)
        fits = KORQuery(0, 3, ("pub", "cafe"), 7.0)
        busts = KORQuery(0, 3, ("pub", "cafe"), 6.9)
        assert list(reasons(graph, fits, cells)) == [None, None]
        assert list(reasons(graph, busts, cells)) == [PROOF, PROOF]
        found = engine.run(fits, algorithm="osscaling")
        assert found.route.nodes == (0, 2, 1, 3)
        assert found.route.budget_score == 7.0
        proven = engine.run(busts, algorithm="osscaling")
        assert proven.failure_reason == PROOF and proven.stats.loops == 0
        assert not exhaustive_search(graph, engine.index, busts).feasible

    def test_unreachable_keyword_nodes_prove_quietly(self):
        """Every ``cafe`` node is out of reach from the source: the
        witness reads ``inf`` and stops, and the filter keeps nothing."""
        builder = GraphBuilder()
        for keywords in ((), ("pub",), ("cafe",), ()):
            builder.add_node(keywords=keywords)
        for u, v in ((0, 1), (1, 3), (2, 3)):
            builder.add_edge(u, v, 1.0, 1.0)
        graph = builder.build()
        query = KORQuery(0, 3, ("pub", "cafe"), 50.0)
        assert list(reasons(graph, query, 2)) == [PROOF, PROOF]
