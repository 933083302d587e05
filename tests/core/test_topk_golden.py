"""Golden top-k fingerprints: KkR answers and every search counter.

``tests/golden/topk_fingerprints.json`` holds, for ``os_scaling_top_k``
and ``bucket_bound_top_k`` at k in {1, 2, 3, 5} with both optimisation
strategies on and off, each query's routes (nodes, objective and budget
scores) and all eleven ``STAT_FIELDS`` counters, over the Figure-1 graph
and the ``small_flickr`` dataset of ``tests/conftest.py``.  The top-1
searches are pinned by ``tests/golden/wave_fingerprints.json``; this
file pins their KkR twins, which share the same label search.

Regenerate with ``PYTHONPATH=src python -m tests.core.test_topk_golden``
— only on purpose: a changed record means a top-k search now returns
other routes or treats labels differently.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.engine import KOREngine
from repro.core.query import KORQuery
from repro.core.topk import bucket_bound_top_k, os_scaling_top_k
from repro.datasets import QuerySetConfig, generate_query_set
from repro.graph.generators import figure_1_graph

from tests.core.test_kernels import STAT_FIELDS

GOLDEN_PATH = Path(__file__).resolve().parent.parent / "golden" / "topk_fingerprints.json"

SEARCHES = {"osscaling-topk": os_scaling_top_k, "bucketbound-topk": bucket_bound_top_k}
KS = (1, 2, 3, 5)
STRATEGIES = {
    "strategies-on": {},
    "strategies-off": {"use_strategy1": False, "use_strategy2": False},
}

#: Figure-1 queries: the paper's worked example, a three-keyword tour, an
#: infeasible one and two whose source alone covers the query (the root's
#: tau completion is the first answer).
FIG1_QUERIES = (
    KORQuery(0, 7, ("t1", "t2"), 10.0),
    KORQuery(0, 7, ("t1", "t2", "t4"), 12.0),
    KORQuery(2, 4, ("t1", "t5"), 15.0),
    KORQuery(0, 7, ("t5",), 6.0),
    KORQuery(0, 7, ("t3",), 10.0),
    KORQuery(3, 7, ("t1",), 8.0),
)


def flickr_queries(engine: KOREngine) -> list[KORQuery]:
    """Two seeded small_flickr streams, two and three keywords."""
    return [
        query
        for keywords, seed in ((2, 3), (3, 5))
        for query in generate_query_set(
            engine.graph,
            engine.index,
            QuerySetConfig(num_queries=4, num_keywords=keywords, budget_limit=3.0, seed=seed),
            tables=engine.tables,
        )
    ]


def record(result) -> dict:
    """One KkR answer in the golden file's shape."""
    return {
        "routes": [
            [list(route.nodes), round(route.objective_score, 9), round(route.budget_score, 9)]
            for route in result.routes
        ],
        "stats": [getattr(result.stats, name) for name in STAT_FIELDS],
    }


def records(engine: KOREngine, queries, search, k: int, params: dict) -> list[dict]:
    return [
        record(search(engine.graph, engine.tables, engine.index, query, k, **params))
        for query in queries
    ]


def keys():
    for graph in ("fig1", "small_flickr"):
        for name in SEARCHES:
            for strategies in STRATEGIES:
                for k in KS:
                    yield graph, name, strategies, k


def key_name(graph: str, name: str, strategies: str, k: int) -> str:
    return f"{graph}/{name}/{strategies}/k-{k}"


def document(engines: dict[str, tuple[KOREngine, list[KORQuery]]]) -> dict:
    return {
        "stat_fields": list(STAT_FIELDS),
        "records": {
            key_name(graph, name, strategies, k): records(
                *engines[graph], SEARCHES[name], k, STRATEGIES[strategies]
            )
            for graph, name, strategies, k in keys()
        },
    }


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def engines(fig1_engine, small_flickr_engine) -> dict:
    return {
        "fig1": (fig1_engine, list(FIG1_QUERIES)),
        "small_flickr": (small_flickr_engine, flickr_queries(small_flickr_engine)),
    }


def test_the_golden_file_covers_every_case(golden):
    assert golden["stat_fields"] == list(STAT_FIELDS)
    assert set(golden["records"]) == {key_name(*key) for key in keys()}


@pytest.mark.parametrize("graph,name,strategies,k", list(keys()))
def test_top_k_reproduces_golden(golden, engines, graph, name, strategies, k):
    engine, queries = engines[graph]
    got = records(engine, queries, SEARCHES[name], k, STRATEGIES[strategies])
    assert got == golden["records"][key_name(graph, name, strategies, k)]


if __name__ == "__main__":
    from tests.datasets.test_fingerprints import DATASETS

    flickr = KOREngine(DATASETS["small_flickr"]())
    built = document(
        {
            "fig1": (KOREngine(figure_1_graph()), list(FIG1_QUERIES)),
            "small_flickr": (flickr, flickr_queries(flickr)),
        }
    )
    GOLDEN_PATH.write_text(json.dumps(built, indent=1) + "\n")
    print(f"wrote {GOLDEN_PATH}")
