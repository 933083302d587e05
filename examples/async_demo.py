#!/usr/bin/env python
"""Async serving demo: concurrent clients over the asyncio front-end.

The sync services are batch-shaped; a server faces many independent
clients, each holding one query.  ``AsyncQueryService`` bridges the two:

1. every client ``await``s its own query — no batching in client code;
2. duplicate in-flight queries coalesce into one flight (single-flight
   on the result cache's canonical key);
3. concurrent distinct queries aggregate into one micro-batched
   ``execute`` wave, which reuses the whole sync tier: result cache,
   in-batch dedup, shared candidate sets, backend fan-out;
4. per-request timeouts detach one impatient client without disturbing
   the flight everyone else is on.

Run:  PYTHONPATH=src python examples/async_demo.py
"""

import asyncio
import random
import time

from repro.core.engine import KOREngine
from repro.datasets.flickr import FlickrConfig, build_flickr_graph
from repro.datasets.photos import PhotoStreamConfig
from repro.datasets.queries import QuerySetConfig, generate_query_set
from repro.service import AsyncQueryService, QueryService, ShardedQueryService


def build_city():
    config = FlickrConfig(photo_stream=PhotoStreamConfig(num_users=80, num_hotspots=36, seed=3))
    return build_flickr_graph(config).graph


def client_stream(engine, clients=40, seed=7):
    """One query per client, with heavy repetition (popular trips)."""
    config = QuerySetConfig(num_queries=8, num_keywords=3, budget_limit=5.0, seed=seed)
    base = generate_query_set(engine.graph, engine.index, config, tables=engine.tables)
    rng = random.Random(seed)
    return [rng.choice(base) for _ in range(clients)]


async def serve_concurrently(front, queries):
    """Every client awaits its own query at once (a request burst)."""

    async def one_client(query):
        return await front.submit(query, algorithm="bucketbound")

    return await asyncio.gather(*(one_client(query) for query in queries))


async def main_async():
    graph = build_city()
    print(f"flickr-like city: {graph.num_nodes} locations, {graph.num_edges} arcs")

    engine = KOREngine(graph)
    queries = client_stream(engine)
    print(f"request burst: {len(queries)} clients, {len(set(queries))} distinct trips\n")

    # -- flat service behind the async front-end -----------------------
    service = QueryService(engine, cache_capacity=1024)
    async with AsyncQueryService(service) as front:
        begin = time.perf_counter()
        results = await serve_concurrently(front, queries)
        wall = time.perf_counter() - begin
        scheduling = front.scheduling_stats()
        print(f"async front-end:     {wall * 1000:8.1f} ms for the whole burst")
        print(
            f"  collapse: {scheduling['requests']} requests -> "
            f"{scheduling['flights']} flights -> {scheduling['waves']} execute wave(s)"
        )
        print("  front-end metrics:", front.snapshot().describe())

    # -- the same burst, sequentially, for scale -----------------------
    sequential_service = QueryService(engine, cache_capacity=1024)
    begin = time.perf_counter()
    for query in queries:
        sequential_service.submit(query, algorithm="bucketbound")
    sequential = time.perf_counter() - begin
    print(f"sync, one-by-one:    {sequential * 1000:8.1f} ms\n")

    # -- per-request timeout: one impatient client ---------------------
    demo_query = next(
        (query for query, result in zip(queries, results) if result.feasible),
        queries[0],
    )
    impatient_service = QueryService(engine, cache_capacity=1024)
    async with AsyncQueryService(impatient_service, window_seconds=0.05) as front:
        patient = asyncio.ensure_future(front.submit(demo_query, algorithm="bucketbound"))
        try:
            await front.submit(demo_query, algorithm="bucketbound", timeout=1e-6)
        except asyncio.TimeoutError:
            print("impatient client timed out; the shared flight kept flying:")
        result = await patient
        print(f"  patient client got OS={result.objective_score:.2f} "
              f"(timeouts recorded: {front.snapshot().timeouts})\n")

    # -- sharded service: same front-end, one cross-cell engine -------
    sharded = ShardedQueryService(graph, num_cells=4, cache_capacity=1024)
    async with AsyncQueryService(sharded, close_service=True) as front:
        sharded_results = await serve_concurrently(front, queries)
        outcomes = sharded.snapshot().merge_wins
        print(f"sharded async burst: {len(sharded_results)} answers; outcomes: {outcomes}")

    matching = sum(
        1
        for flat, routed in zip(results, sharded_results)
        if flat.feasible == routed.feasible
    )
    print(f"flat vs sharded feasibility agreement: {matching}/{len(results)}")

    feasible = [r for r in results if r.feasible]
    if feasible:
        best = min(feasible, key=lambda r: r.objective_score)
        print("\nsample answer (best objective in the burst):")
        print(" ", best.route.describe(graph))


def main():
    asyncio.run(main_async())


if __name__ == "__main__":
    main()
