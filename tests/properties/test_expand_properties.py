"""Differential property: the out-edge screen equals the per-edge loop.

Random digraphs whose out-degrees straddle the screening threshold —
hubs of 2x-20x it beside leaves below it, float weights, a pocket of
nodes that cannot reach the target (``inf`` in both completion columns)
— searched once with the screen on and once with the threshold above
every degree.  Route, scores, failure reason and **every** counter must
agree, for all five label searches, with and without a trace.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.bucketbound import bucket_bound
from repro.core.engine import KOREngine
from repro.core.osscaling import os_scaling
from repro.core.query import KORQuery
from repro.core.results import SearchTrace
from repro.core.topk import bucket_bound_top_k, os_scaling_top_k
from repro.graph.builder import GraphBuilder

from tests.core.test_searchbase import NEVER, fingerprint, screen_from
from tests.strategies import KEYWORD_POOL

SLOW = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Budgets from below any route's cost to slack.
BUDGETS = (0.2, 1.0, 2.5, 6.0, 40.0)


def hub_instance(seed: int, threshold: int):
    """A seeded graph with hubs and leaves around *threshold*, and a query."""
    rng = random.Random(seed)
    hubs = rng.randint(1, 3)
    fan = rng.randint(2 * threshold, 20 * threshold)
    stranded = rng.randint(1, 4)
    n = fan + hubs + stranded + 1
    # The last ``stranded`` nodes only point at each other: reachable
    # from the hubs, but no way on to anything else.
    connected = n - stranded
    builder = GraphBuilder()
    for _ in range(n):
        builder.add_node(keywords=rng.sample(KEYWORD_POOL, rng.randint(0, 2)))

    def weight() -> float:
        return rng.uniform(0.05, 3.0)

    for u in range(n):
        if u < hubs:
            degree = rng.randint(2 * threshold, min(20 * threshold, n - 1))
            heads = rng.sample([v for v in range(n) if v != u], degree)
        elif u < connected:
            degree = rng.randint(1, threshold - 1)
            heads = rng.sample([v for v in range(connected) if v != u], degree)
        else:
            heads = [v for v in range(connected, n) if v != u and rng.random() < 0.5]
        for v in heads:
            builder.add_edge(u, v, weight(), weight())
    graph = builder.build()

    present = sorted(set(graph.keyword_table.words))
    keywords = tuple(rng.sample(present, rng.randint(1, min(3, len(present))))) if present else ()
    source = rng.randrange(hubs) if rng.random() < 0.7 else rng.randrange(n)
    query = KORQuery(source, rng.randrange(connected), keywords, rng.choice(BUDGETS))
    return graph, query


def searches(k: int, threshold: float):
    """The five label searches as ``name -> callable(engine parts, query, **extra)``."""
    return {
        "osscaling": lambda *a, **kw: os_scaling(*a, infrequent_threshold=threshold, **kw),
        "exact": lambda *a, **kw: os_scaling(*a, exact=True, infrequent_threshold=threshold, **kw),
        "bucketbound": lambda *a, **kw: bucket_bound(*a, infrequent_threshold=threshold, **kw),
        "osscaling-topk": lambda *a, **kw: os_scaling_top_k(*a, k=k, **kw),
        "bucketbound-topk": lambda *a, **kw: bucket_bound_top_k(*a, k=k, **kw),
    }


class TestScreenEqualsPerEdgeLoop:
    @SLOW
    @given(
        st.integers(0, 2**32 - 1),
        st.sampled_from((2, 3, 5)),
        st.integers(1, 3),
        st.sampled_from((0.01, 0.3)),
    )
    def test_all_label_searches(self, seed, threshold, k, infrequent):
        graph, query = hub_instance(seed, threshold)
        engine = KOREngine(graph)
        parts = (graph, engine.tables, engine.index, query)
        for name, run in searches(k, infrequent).items():
            with screen_from(threshold):
                screened = fingerprint(run(*parts))
            with screen_from(NEVER):
                per_edge = fingerprint(run(*parts))
            assert screened == per_edge, name
            if not name.endswith("-topk"):
                # A traced search runs the per-edge loop whatever the
                # threshold; its counters are the untraced ones.
                with screen_from(threshold):
                    traced = fingerprint(run(*parts, trace=SearchTrace()))
                assert traced == screened, name
