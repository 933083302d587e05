#!/usr/bin/env python
"""Serving demo: batched, cached KOR over a Flickr-like city.

Simulates the workload the paper's query logs motivate — a stream of
trip-planning queries with heavy keyword and whole-query repetition —
and serves it three ways:

1. the baseline: one ``KOREngine.run`` per query, no reuse;
2. a cold ``QueryService`` batch: in-batch dedup, one shared
   candidate-set pass over the inverted index per wave;
3. the same stream again on the warm cache.

Run:  PYTHONPATH=src python examples/serving_demo.py
"""

import random
import time

from repro.core.engine import KOREngine
from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig
from repro.datasets.queries import QuerySetConfig, generate_query_set
from repro.service import QueryService


def build_stream(engine, repeats=8, seed=7):
    """A repeat-heavy query stream over the dataset's own vocabulary."""
    config = QuerySetConfig(num_queries=10, num_keywords=3, budget_limit=5.0, seed=seed)
    base = generate_query_set(engine.graph, engine.index, config, tables=engine.tables)
    stream = base * repeats
    random.Random(seed).shuffle(stream)
    return stream


def main():
    config = FlickrConfig(photo_stream=PhotoStreamConfig(num_users=150, num_hotspots=60, seed=3))
    dataset = build_flickr_graph(config)
    graph = dataset.graph
    print(f"flickr-like city: {graph.num_nodes} locations, {graph.num_edges} arcs")

    engine = KOREngine(graph)
    stream = build_stream(engine)
    print(f"query stream: {len(stream)} queries ({len(set(stream))} distinct)\n")

    begin = time.perf_counter()
    for query in stream:
        engine.run(query, algorithm="bucketbound")
    sequential = time.perf_counter() - begin
    print(f"engine, sequential:  {sequential * 1000:8.1f} ms")

    service = QueryService(engine, cache_capacity=1024)
    begin = time.perf_counter()
    results = service.run_batch(stream, algorithm="bucketbound")
    cold = time.perf_counter() - begin
    print(f"service, cold batch: {cold * 1000:8.1f} ms")

    begin = time.perf_counter()
    service.run_batch(stream, algorithm="bucketbound")
    warm = time.perf_counter() - begin
    print(f"service, warm batch: {warm * 1000:8.1f} ms "
          f"({sequential / warm:.0f}x the sequential loop)\n")

    print("serving metrics:", service.snapshot().describe())

    feasible = [r for r in results if r.feasible]
    if feasible:
        best = min(feasible, key=lambda r: r.objective_score)
        print("\nsample answer (best objective in the batch):")
        print(" ", best.route.describe(graph))


if __name__ == "__main__":
    main()
