#!/usr/bin/env python
"""KkR: keyword-aware top-k route search (paper Section 3.5).

A trip planner rarely wants a single take-it-or-leave-it answer; the KkR
extension returns the k best feasible routes so the user can choose.
This example asks for the top-5 routes on the Figure-1 graph and on a
synthetic city, with both extended algorithms.

Run:  python examples/topk_route_search.py
"""

from repro.core.engine import KOREngine
from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig
from repro.graph.generators import figure_1_graph


def show(graph, result):
    if not result.routes:
        print("  no feasible route")
        return
    for rank, route in enumerate(result.routes, start=1):
        hops = " -> ".join(graph.name_of(v) for v in route.nodes)
        print(f"  #{rank}: OS={route.objective_score:.2f} BS={route.budget_score:.2f}  {hops}")


def main():
    print("=== Figure-1 graph, Q = <v0, v7, {t1, t2}, 10>, k = 5 ===")
    graph = figure_1_graph()
    engine = KOREngine(graph)
    for algorithm in ("osscaling", "bucketbound"):
        print(f"\n{algorithm} top-5:")
        result = engine.top_k(0, 7, ["t1", "t2"], 10.0, k=5, algorithm=algorithm)
        show(graph, result)

    print("\n=== synthetic city, 3 keywords, k = 3 ===")
    dataset = build_flickr_graph(
        FlickrConfig(photo_stream=PhotoStreamConfig(num_users=200, num_hotspots=80, seed=3))
    )
    city = dataset.graph
    print(" ", dataset.summary())
    city_engine = KOREngine(city)

    # Use three reasonably common tags so the query is satisfiable.
    vocabulary = city_engine.index.vocabulary
    by_frequency = sorted(
        (kid for kid in range(len(city.keyword_table))
         if vocabulary.document_frequency(kid) > 0),
        key=vocabulary.document_frequency,
        reverse=True,
    )
    keywords = [city.keyword_table.word_of(kid) for kid in by_frequency[2:5]]
    print(f"  keywords: {keywords}")

    result = city_engine.top_k(0, city.num_nodes // 2, keywords, 8.0, k=3, algorithm="bucketbound")
    print("\nbucketbound top-3:")
    show(city, result)


if __name__ == "__main__":
    main()
